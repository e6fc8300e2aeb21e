package kubesim

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"hta/internal/resources"
)

// nodeIsEmpty reports whether no live pod is bound to the node.
func (c *Cluster) nodeIsEmpty(n *Node) bool {
	if c.cfg.NaiveScheduling {
		return c.naiveNodeIsEmpty(n)
	}
	return n.livePods == 0
}

// nodeFree returns the node's unallocated capacity.
func (c *Cluster) nodeFree(n *Node) resources.Vector {
	if c.cfg.NaiveScheduling {
		return c.naiveNodeFree(n)
	}
	return n.Allocatable.Sub(n.Allocated)
}

// freeNodeOf updates the hosting node's emptiness stamp after a pod
// stopped consuming it.
func (c *Cluster) freeNodeOf(p *Pod) {
	if p.NodeName == "" {
		return
	}
	n, ok := c.nodes[p.NodeName]
	if !ok {
		return
	}
	if c.nodeIsEmpty(n) {
		n.EmptySince = c.eng.Now()
	}
}

// unbind terminates a pod (if live) and updates node accounting. The
// caller is responsible for store removal and notifications.
func (c *Cluster) unbind(p *Pod) {
	if !p.Terminal() {
		p.Phase = PodFailed
		p.FinishedAt = c.eng.Now()
		c.release(p)
	}
	c.freeNodeOf(p)
}

// pendingUnbound returns the Pending, not-yet-bound pods in UID order.
// The indexed path compacts the pending slice in place and returns it
// (append order is UID order, and compaction keeps relative order);
// the naive path rescans the store into the scratch slice and sorts.
func (c *Cluster) pendingUnbound() []*Pod {
	if c.cfg.NaiveScheduling {
		pending := c.naivePendingUnbound(c.pendingScratch[:0])
		slices.SortFunc(pending, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
		c.pendingScratch = pending
		return pending
	}
	live := c.pending[:0]
	for _, p := range c.pending {
		if p.Phase == PodPending && p.NodeName == "" {
			live = append(live, p)
		}
	}
	clear(c.pending[len(live):])
	c.pending = live
	return live
}

// releaseScratch drops the pod references held by the pending scratch
// slice so deleted pods can be collected.
func (c *Cluster) releaseScratch(pending []*Pod) {
	for i := range pending {
		pending[i] = nil
	}
}

// scheduleOnce is the kube-scheduler sync loop: bind pending pods to
// ready nodes with sufficient free resources, first-fit in node-age
// order; emit FailedScheduling for pods that cannot be placed. The
// controller-manager's StatefulSet reconciliation piggybacks on the
// same loop.
//
// The pass iterates a snapshot of the pending queue: pods a watch
// handler creates mid-pass are appended past it and wait for the next
// tick, as they did when the queue was a sorted copy.
func (c *Cluster) scheduleOnce() {
	for _, ss := range c.statefulsets {
		c.reconcileStatefulSet(ss)
	}

	pending := c.pendingUnbound()
	nodes := c.sortedNodes()
	for _, p := range pending {
		if n := c.firstFit(nodes, p.Resources); n != nil {
			c.bind(p, n)
			continue
		}
		if !p.UnschedulableSeen {
			p.UnschedulableSeen = true
			c.recordEvent("pod/"+p.Name, ReasonFailedScheduling,
				fmt.Sprintf("0/%d nodes are available: Insufficient resources (request %v)", len(nodes), p.Resources))
			c.notifyPod(Modified, p, ReasonFailedScheduling)
		}
	}
	if c.cfg.NaiveScheduling {
		c.releaseScratch(pending)
	}
}

// firstFit returns the first Ready node of the roster snapshot nodes
// whose free capacity fits res, or nil. While nodes is still the
// indexed roster this is a descent of c.fit; the naive path, and a
// pass whose roster a watch handler changed mid-pass, scan nodes.
func (c *Cluster) firstFit(nodes []*Node, res resources.Vector) *Node {
	if c.fitCovers(nodes) {
		if s := c.fit.FindFirst(res); s >= 0 {
			return nodes[s]
		}
		return nil
	}
	for _, n := range nodes {
		if n.Ready && res.Fits(c.nodeFree(n)) {
			return n
		}
	}
	return nil
}

// fitCovers reports whether c.fit indexes exactly the roster snapshot
// nodes: the indexed path is on, no node was added or removed since
// the roster was cached, and nodes is that cached slice.
func (c *Cluster) fitCovers(nodes []*Node) bool {
	return !c.cfg.NaiveScheduling && !c.nodeDirty && len(nodes) == len(c.nodeList) &&
		(len(nodes) == 0 || &nodes[0] == &c.nodeList[0])
}

// syncFit refreshes a node's leaf in the fit index after its
// allocation changed. Nodes added since the roster was cached have no
// slot yet; the next sortedNodes rebuild indexes them.
func (c *Cluster) syncFit(n *Node) {
	if n.slot < len(c.nodeList) && c.nodeList[n.slot] == n {
		c.fit.Set(n.slot, n.Allocatable.Sub(n.Allocated))
	}
}

// sortedNodes returns the node roster sorted by creation time then
// name. The fast path serves a cached slice invalidated on node
// add/remove, and rebuilds the fit index with it; a rebuild allocates
// a fresh backing array so callers holding an older snapshot can keep
// iterating it safely.
func (c *Cluster) sortedNodes() []*Node {
	if c.cfg.NaiveScheduling {
		return c.naiveSortedNodes()
	}
	if c.nodeDirty || c.nodeList == nil {
		out := make([]*Node, 0, len(c.nodes))
		for _, n := range c.nodes {
			out = append(out, n)
		}
		slices.SortFunc(out, func(a, b *Node) int {
			if c := a.CreatedAt.Compare(b.CreatedAt); c != 0 {
				return c
			}
			return cmp.Compare(a.Name, b.Name)
		})
		c.nodeList = out
		c.nodeDirty = false
		c.fit.Reset(nil)
		c.fit.Ensure(len(out))
		for i, n := range out {
			n.slot = i
			c.fit.Set(i, n.Allocatable.Sub(n.Allocated))
		}
	}
	return c.nodeList
}

func (c *Cluster) bind(p *Pod, n *Node) {
	p.NodeName = n.Name
	p.ScheduledAt = c.eng.Now()
	n.EmptySince = time.Time{}
	n.Allocated = n.Allocated.Add(p.Resources)
	n.livePods++
	c.syncFit(n)
	m := c.podsByNode[n.Name]
	if m == nil {
		m = make(map[string]*Pod)
		c.podsByNode[n.Name] = m
	}
	m[p.Name] = p
	c.recordEvent("pod/"+p.Name, ReasonScheduled, "bound to "+n.Name)
	c.notifyPod(Modified, p, ReasonScheduled)
	c.kubeletStart(p, n)
}
