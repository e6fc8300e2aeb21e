package kubesim

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// addNode registers a ready node with the API server.
func (c *Cluster) addNode() *Node {
	c.nodeSeq++
	now := c.eng.Now()
	n := &Node{
		Name:        fmt.Sprintf("node-%d", c.nodeSeq),
		Allocatable: c.cfg.NodeAllocatable,
		Ready:       true,
		CreatedAt:   now,
		ReadyAt:     now,
		Images:      make(map[string]bool),
		EmptySince:  now,
	}
	c.nodes[n.Name] = n
	c.nodeDirty = true
	c.recordEvent("node/"+n.Name, ReasonNodeReady, "node is ready")
	c.notifyNode(Added, n)
	return n
}

func (c *Cluster) removeNode(n *Node) {
	delete(c.nodes, n.Name)
	delete(c.podsByNode, n.Name)
	c.nodeDirty = true
	c.recordEvent("node/"+n.Name, ReasonNodeRemoved, "empty node removed")
	c.notifyNode(Deleted, n)
}

// cloudControllerOnce is the cloud-controller-manager / cluster-
// autoscaler loop: reserve machines for unschedulable pods (batched
// per loop iteration, so same-batch nodes share provisioning latency,
// matching the paper's observation in §IV-B) and release nodes that
// have been empty longer than ScaleDownDelay. Both sweeps share one
// node-roster snapshot per sync; the reference path re-sorts before
// the scale-down sweep, as the pre-index controller did.
func (c *Cluster) cloudControllerOnce() {
	nodes := c.sortedNodes()
	c.scaleUpForPending(nodes)
	if c.cfg.NaiveScheduling {
		nodes = c.naiveSortedNodes()
	}
	c.scaleDownEmpty(nodes)
}

func (c *Cluster) scaleUpForPending(nodes []*Node) {
	// At the quota no estimate can add a node: needed is capped at
	// room below.
	room := c.cfg.MaxNodes - len(c.nodes) - c.provisioning
	if room <= 0 {
		return
	}
	unsched := c.pendingScratch[:0]
	if c.cfg.NaiveScheduling {
		for _, p := range c.pods {
			if p.Phase == PodPending && p.NodeName == "" && p.UnschedulableSeen {
				// A node of the standard shape must be able to host the
				// pod at all, or provisioning would never help.
				if p.Resources.Fits(c.cfg.NodeAllocatable) {
					unsched = append(unsched, p)
				}
			}
		}
		// Deterministic queue order: the bin-packed node estimate
		// below is order-sensitive for mixed pod sizes.
		slices.SortFunc(unsched, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
	} else {
		// The pending queue is already in UID order.
		for _, p := range c.pendingUnbound() {
			if p.UnschedulableSeen && p.Resources.Fits(c.cfg.NodeAllocatable) {
				unsched = append(unsched, p)
			}
		}
	}
	c.pendingScratch = unsched
	defer c.releaseScratch(unsched)
	if len(unsched) == 0 {
		return
	}
	// Nodes already being reserved will absorb part of the pending
	// demand; only provision the remainder.
	needed := c.nodesNeededFor(nodes, unsched) - c.provisioning
	if needed > room {
		needed = room
	}
	if needed <= 0 {
		return
	}
	// One latency sample per batch: machines reserved together in the
	// same zone become ready at nearly the same time, so the wave is a
	// single batch event — one ready time, one heap settle — rather
	// than per-node timers with per-node jitter.
	base := c.rng.TruncNormal(
		c.cfg.ProvisionMean.Seconds(),
		c.cfg.ProvisionStdDev.Seconds(),
		c.cfg.ProvisionMin.Seconds(),
		c.cfg.ProvisionMean.Seconds()+10*c.cfg.ProvisionStdDev.Seconds(),
	)
	jitter := c.rng.Normal(0, 0.5)
	if jitter < 0 {
		jitter = -jitter
	}
	c.provisioning += needed
	c.recordEvent("cluster", ReasonScaleUp,
		fmt.Sprintf("reserving %d nodes (pending unschedulable pods: %d)", needed, len(unsched)))
	d := time.Duration((base + jitter) * float64(time.Second))
	c.eng.AfterBatchN(d, c.lane, "node-provision", needed, func() {
		c.provisioning--
		c.addNode()
	})
}

// nodesNeededFor first-fit packs the pending pods onto the free
// space of existing ready nodes (capacity the scheduler has not yet
// used, e.g. a node that just came up) and then onto hypothetical
// empty nodes of the configured shape, returning only the count of
// new nodes required. nodes is the roster sortedNodes just returned,
// so the packing starts from a copy of its fit index; each pod is then
// a descent of that copy and, failing it, of a second index over the
// bins opened so far.
func (c *Cluster) nodesNeededFor(nodes []*Node, pods []*Pod) int {
	if !c.fitCovers(nodes) {
		return c.naiveNodesNeededFor(nodes, pods)
	}
	existing, bins := &c.estFit, &c.binFit
	existing.CloneFrom(&c.fit)
	bins.Reset(nil)
	nbins := 0
	for _, p := range pods {
		if s := existing.FindFirst(p.Resources); s >= 0 {
			existing.Set(s, existing.Leaf(s).Sub(p.Resources))
			continue
		}
		if s := bins.FindFirst(p.Resources); s >= 0 {
			bins.Set(s, bins.Leaf(s).Sub(p.Resources))
			continue
		}
		bins.Ensure(nbins + 1)
		bins.Set(nbins, c.cfg.NodeAllocatable.Sub(p.Resources))
		nbins++
	}
	return nbins
}

func (c *Cluster) scaleDownEmpty(nodes []*Node) {
	now := c.eng.Now()
	for _, n := range nodes {
		if len(c.nodes)+c.provisioning <= c.cfg.MinNodes {
			return
		}
		if !n.Ready || n.EmptySince.IsZero() {
			continue
		}
		if now.Sub(n.EmptySince) < c.cfg.ScaleDownDelay {
			continue
		}
		if !c.nodeIsEmpty(n) {
			// Stale stamp; clear it.
			n.EmptySince = time.Time{}
			continue
		}
		c.recordEvent("cluster", ReasonScaleDown, "removing empty node "+n.Name)
		c.removeNode(n)
	}
}

// FailNode simulates an abrupt node loss (hardware failure): the node
// disappears from the fleet and every pod bound to it is killed, which
// informers observe as Deleted events with reason Killing. The cloud
// controller will re-provision on the next cycle if the dead pods'
// owners recreate them.
func (c *Cluster) FailNode(name string) error {
	return c.failNode(name, ReasonNodeFailure)
}

// PreemptNode simulates a cloud provider reclaiming a preemptible
// (spot) machine — mechanically identical to FailNode but recorded
// with reason Preempted so observers can distinguish reclaim storms
// from hardware faults.
func (c *Cluster) PreemptNode(name string) error {
	return c.failNode(name, ReasonPreempted)
}

func (c *Cluster) failNode(name, reason string) error {
	n, ok := c.nodes[name]
	if !ok {
		return fmt.Errorf("kubesim: node %q not found", name)
	}
	var victims []string
	if c.cfg.NaiveScheduling {
		for _, p := range c.ListPods(nil) {
			if p.NodeName == name && !p.Terminal() {
				victims = append(victims, p.Name)
			}
		}
	} else {
		bound := make([]*Pod, 0, len(c.podsByNode[name]))
		for _, p := range c.podsByNode[name] {
			bound = append(bound, p)
		}
		slices.SortFunc(bound, func(a, b *Pod) int { return cmp.Compare(a.UID, b.UID) })
		for _, p := range bound {
			victims = append(victims, p.Name)
		}
	}
	for _, v := range victims {
		if err := c.DeletePod(v); err != nil {
			return err
		}
	}
	c.recordEvent("node/"+name, reason, fmt.Sprintf("node lost with %d pods", len(victims)))
	c.removeNode(n)
	return nil
}
