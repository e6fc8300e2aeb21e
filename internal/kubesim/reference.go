package kubesim

import (
	"slices"
	"strings"

	"hta/internal/resources"
)

// This file retains the pre-index control-plane primitives verbatim.
// A cluster built with Config.NaiveScheduling routes every scheduling
// predicate and sweep through them, giving differential tests and
// benchmarks a reference whose decisions the indexed fast path must
// reproduce byte-for-byte: the naive forms recompute node occupancy by
// scanning the entire pod store and re-sort the node roster on every
// pass, which is exactly the O(pending × nodes × pods) behaviour the
// indexes remove.

// naiveNodeIsEmpty scans the whole pod store for a live pod bound to
// the node.
func (c *Cluster) naiveNodeIsEmpty(n *Node) bool {
	for _, p := range c.pods {
		if p.NodeName == n.Name && !p.Terminal() {
			return false
		}
	}
	return true
}

// naiveNodeFree recomputes the node's free capacity by subtracting
// every live bound pod's request from its allocatable.
func (c *Cluster) naiveNodeFree(n *Node) resources.Vector {
	free := n.Allocatable
	for _, q := range c.pods {
		if q.NodeName == n.Name && !q.Terminal() {
			free = free.Sub(q.Resources)
		}
	}
	return free
}

// naiveSortedNodes rebuilds and sorts the node roster from scratch.
func (c *Cluster) naiveSortedNodes() []*Node {
	out := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, n)
	}
	slices.SortFunc(out, func(a, b *Node) int {
		if c := a.CreatedAt.Compare(b.CreatedAt); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}

// naivePendingUnbound scans the whole pod store for Pending unbound
// pods, appending them to out.
func (c *Cluster) naivePendingUnbound(out []*Pod) []*Pod {
	for _, p := range c.pods {
		if p.Phase == PodPending && p.NodeName == "" {
			out = append(out, p)
		}
	}
	return out
}

// naiveNodesNeededFor is the cluster-autoscaler estimate as a linear
// first-fit: every pod scans the free space of the existing ready
// nodes, then every hypothetical node opened so far.
func (c *Cluster) naiveNodesNeededFor(nodes []*Node, pods []*Pod) int {
	var existing []resources.Vector
	for _, n := range nodes {
		if !n.Ready {
			continue
		}
		existing = append(existing, c.nodeFree(n))
	}
	var bins []resources.Vector // free space per hypothetical new node
	for _, p := range pods {
		placedExisting := false
		for i := range existing {
			if p.Resources.Fits(existing[i]) {
				existing[i] = existing[i].Sub(p.Resources)
				placedExisting = true
				break
			}
		}
		if placedExisting {
			continue
		}
		placed := false
		for i := range bins {
			if p.Resources.Fits(bins[i]) {
				bins[i] = bins[i].Sub(p.Resources)
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, c.cfg.NodeAllocatable.Sub(p.Resources))
		}
	}
	return len(bins)
}
