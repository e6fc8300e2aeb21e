package kubesim

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"hta/internal/resources"
	"hta/internal/simclock"
)

// WorkerSet is a ReplicaSet-style controller: it keeps Replicas live
// pods created from a template. The HPA baseline scales worker pods
// through a WorkerSet, and — exactly as the paper criticizes — a
// scale-down deletes pods immediately, interrupting whatever jobs the
// corresponding workers are running. (HTA instead manages pod
// lifecycles directly and drains workers before removal.)
type WorkerSet struct {
	c        *Cluster
	name     string
	template PodSpec
	replicas int
	seq      int
	ticker   *simclock.Ticker
	selector map[string]string // never handed out; Selector copies it
}

// workerSetReconcileInterval matches the kube-controller-manager's
// fast reconcile cadence.
const workerSetReconcileInterval = 5 * time.Second

// NewWorkerSet creates the controller and immediately reconciles to
// the requested replica count.
func NewWorkerSet(c *Cluster, name string, template PodSpec, replicas int) *WorkerSet {
	ws := &WorkerSet{c: c, name: name, template: template, replicas: replicas,
		selector: map[string]string{"workerset": name}}
	ws.ticker = c.eng.Every(workerSetReconcileInterval, "workerset-"+name, ws.Reconcile)
	ws.Reconcile()
	return ws
}

// Stop halts reconciliation. Existing pods are left as they are.
func (ws *WorkerSet) Stop() { ws.ticker.Stop() }

// Selector returns the label selector matching this set's pods.
func (ws *WorkerSet) Selector() map[string]string { return maps.Clone(ws.selector) }

// Replicas returns the desired replica count.
func (ws *WorkerSet) Replicas() int { return ws.replicas }

// SetReplicas changes the desired count and reconciles immediately.
func (ws *WorkerSet) SetReplicas(n int) {
	if n < 0 {
		n = 0
	}
	ws.replicas = n
	ws.Reconcile()
}

// LivePods returns the set's non-terminal pods sorted by UID.
func (ws *WorkerSet) LivePods() []Pod {
	var out []Pod
	for _, p := range ws.c.selectPods(ws.selector) {
		if !p.Terminal() {
			out = append(out, p.DeepCopy())
		}
	}
	return out
}

// Reconcile creates or deletes pods to match the desired count. The
// periodic sync lists through the cluster's label index, so its cost
// scales with this set's pod count rather than the whole store.
//
// Every pod is classified, and scale-down victims are ranked, before
// the first deletion, so watch handlers that run inside DeletePod
// cannot change what this sync decided.
func (ws *WorkerSet) Reconcile() {
	var finished, live []*Pod
	for _, p := range ws.c.selectPods(ws.selector) {
		if p.Terminal() {
			finished = append(finished, p)
		} else {
			live = append(live, p)
		}
	}
	var victims []*Pod
	if excess := len(live) - ws.replicas; excess > 0 {
		victims = ws.deletionOrder(live)[:excess]
	}
	for _, p := range finished {
		// Garbage-collect finished pods.
		_ = ws.c.DeletePod(p.Name)
	}
	for i := len(live); i < ws.replicas; i++ {
		ws.createPod()
	}
	for _, p := range victims {
		_ = ws.c.DeletePod(p.Name)
	}
}

func (ws *WorkerSet) createPod() {
	for {
		ws.seq++
		name := fmt.Sprintf("%s-%d", ws.name, ws.seq)
		if _, exists := ws.c.pods[name]; exists {
			continue
		}
		spec := ws.template
		spec.Name = name
		labels := make(map[string]string, len(ws.template.Labels)+1)
		for k, v := range ws.template.Labels {
			labels[k] = v
		}
		labels["workerset"] = ws.name
		spec.Labels = labels
		if _, err := ws.c.CreatePod(spec); err != nil {
			ws.c.recordEvent("workerset/"+ws.name, "FailedCreate", err.Error())
		}
		return
	}
}

// deletionOrder ranks pods for removal: not-yet-running pods first
// (cheapest to kill), then newest running pods — the default
// ReplicaSet victim ordering. It sorts live in place.
func (ws *WorkerSet) deletionOrder(live []*Pod) []*Pod {
	rank := func(p *Pod) int {
		if p.Phase == PodPending {
			return 0
		}
		return 1
	}
	slices.SortFunc(live, func(a, b *Pod) int {
		if c := cmp.Compare(rank(a), rank(b)); c != 0 {
			return c
		}
		return cmp.Compare(b.UID, a.UID) // newest first
	})
	return live
}

// SetPodUsage attaches a usage reporter to an existing pod so the
// metrics server can observe its consumption. The glue layer calls
// this once it has spawned the worker process for the pod.
func (c *Cluster) SetPodUsage(name string, fn func() resources.Vector) error {
	p, ok := c.pods[name]
	if !ok {
		return fmt.Errorf("kubesim: pod %q not found", name)
	}
	p.usage = fn
	return nil
}
