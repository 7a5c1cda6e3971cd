// Package dag models a serverless application as a directed acyclic graph
// of functions and plans its deployment: per-function memory sizes chosen
// jointly with function-fusion decisions under an end-to-end latency/cost
// objective.
//
// Nodes reference a workload.Spec plus predicted (or measured) execution
// times per memory size — the same map the per-function optimizer consumes.
// Edges carry the invocation overhead between functions: trigger latency
// and per-invocation trigger cost (synchronous call, queue/topic hop, or
// stream shard poll), payload-transfer latency proportional to the event
// size, and cold-start exposure — the downstream function's probability of
// landing on a cold instance, estimated by replaying a constant-rate
// arrival schedule through fleetsynth.ColdFraction, which runs the
// internal/warmpool lifecycle (keep-alive reaping, LIFO warm routing, cold
// starts on concurrency growth) shared with the harness deployments.
//
// End-to-end latency is the critical path through the DAG (longest path
// over node service times, cold-start exposure, and edge overhead);
// end-to-end cost is the sum over nodes of invocation-rate-weighted
// provider pricing plus the per-edge trigger charges. Both are scored with
// the optimizer's S_total tradeoff objective, normalized against the best
// reachable cost and latency, so application plans and per-function
// recommendations share one scale.
//
// Fusion merges a chain of same-trigger functions into one deployable unit:
// internal edges disappear (saving trigger latency, per-invocation request
// charges, and cold-start exposure), while the fused unit runs the members
// back to back in one instance whose heap holds every member's working set
// — composed through the platform ResourceModel's GC-pressure curve, which
// is what makes over-aggressive fusion expensive at small sizes. The
// planner enumerates fusion plans over the maximal fusable chains, searches
// each plan's sizes once, exhaustively with lower-bound pruning, fans plans
// out over internal/pool, and reduces deterministically: results are
// bit-identical for a given seed at any worker count.
package dag

import (
	"fmt"
	"sort"

	"sizeless/internal/platform"
	"sizeless/internal/workload"
)

// Trigger classifies how an edge's downstream function is invoked. The
// trigger determines the edge's base latency and per-invocation cost, and
// whether the two functions can legally be fused into one unit.
type Trigger int

const (
	// TriggerSync is a synchronous invocation: direct SDK call, API
	// gateway hop, or a step-function state transition. Fusable.
	TriggerSync Trigger = iota
	// TriggerQueue is an asynchronous queue/topic hop (SQS, SNS,
	// EventBridge). Fusable: the fused unit simply calls the downstream
	// handler inline instead of publishing.
	TriggerQueue
	// TriggerStream is a stream-shard subscription (Kinesis, DynamoDB
	// streams). Not fusable: the consumer's batching/checkpointing
	// semantics cannot be folded into the producer.
	TriggerStream
)

// String implements fmt.Stringer.
func (t Trigger) String() string {
	switch t {
	case TriggerSync:
		return "sync"
	case TriggerQueue:
		return "queue"
	case TriggerStream:
		return "stream"
	}
	return fmt.Sprintf("trigger(%d)", int(t))
}

// Fusable reports whether two functions joined by this trigger may be
// merged into one deployable unit.
func (t Trigger) Fusable() bool { return t == TriggerSync || t == TriggerQueue }

// TriggerProfile prices one trigger kind: the fixed invocation latency the
// edge adds to the critical path and the per-invocation charge it adds to
// the bill (both independent of the functions' memory sizes).
type TriggerProfile struct {
	// LatencyMs is the fixed per-hop latency in milliseconds.
	LatencyMs float64
	// CostPerInvoke is the per-invocation charge in USD.
	CostPerInvoke float64
}

// DefaultTriggerProfiles returns the built-in trigger pricing, shaped on
// public cloud list prices and measured hop latencies: synchronous hops are
// fast but priced like an API call, queue hops add delivery latency at a
// lower unit price, stream hops amortize polling into the cheapest unit
// price but the highest latency.
func DefaultTriggerProfiles() map[Trigger]TriggerProfile {
	return map[Trigger]TriggerProfile{
		TriggerSync:   {LatencyMs: 4, CostPerInvoke: 4e-7},
		TriggerQueue:  {LatencyMs: 15, CostPerInvoke: 5e-7},
		TriggerStream: {LatencyMs: 25, CostPerInvoke: 2e-7},
	}
}

// payloadTransferMsPerKB converts an edge's payload size into transfer
// latency. 0.05 ms/KB ≈ 20 MB/s effective serialization + network path for
// intra-region event delivery.
const payloadTransferMsPerKB = 0.05

// Edge is a directed invocation between two functions of the application.
type Edge struct {
	// From and To name the upstream and downstream functions.
	From, To string
	// Trigger classifies the invocation mechanism (default TriggerSync).
	Trigger Trigger
	// PayloadKB is the event payload handed downstream; it prices the
	// transfer latency. Zero means the downstream spec's PayloadKB.
	PayloadKB float64
	// Calls is how many downstream invocations one upstream invocation
	// fans out to (e.g. one ingest event producing three format calls is
	// three edges with Calls 1, or one edge with Calls 3). Zero means 1.
	// Edges with Calls != 1 are never fused.
	Calls float64
}

// Function is one node of the application graph.
type Function struct {
	// Spec is the function's workload definition; its BaseHeapMB and
	// CodeMB drive the fused-footprint model.
	Spec *workload.Spec
	// Times maps memory size → expected execution time in milliseconds
	// (predicted by the sizeless model or measured).
	Times map[platform.MemorySize]float64
}

// Graph is an application: functions plus the invocation edges between
// them. Build one with New/Add/Connect, then Validate (Plan entry points
// validate implicitly).
type Graph struct {
	// Name labels the application in plans and rendered tables.
	Name string

	nodes []Function
	names []string
	index map[string]int
	edges []Edge
}

// New returns an empty graph.
func New(name string) *Graph {
	return &Graph{Name: name, index: make(map[string]int)}
}

// Add registers a function node. The name comes from spec.Name and must be
// unique within the graph.
func (g *Graph) Add(spec *workload.Spec, times map[platform.MemorySize]float64) error {
	if spec == nil {
		return fmt.Errorf("dag: %s: nil spec", g.Name)
	}
	if spec.Name == "" {
		return fmt.Errorf("dag: %s: spec with empty name", g.Name)
	}
	if _, dup := g.index[spec.Name]; dup {
		return fmt.Errorf("dag: %s: duplicate function %q", g.Name, spec.Name)
	}
	if len(times) == 0 {
		return fmt.Errorf("dag: %s: function %q has no per-size times", g.Name, spec.Name)
	}
	g.index[spec.Name] = len(g.nodes)
	g.nodes = append(g.nodes, Function{Spec: spec, Times: times})
	g.names = append(g.names, spec.Name)
	return nil
}

// Connect registers an invocation edge. Both endpoints must already have
// been added; cycles are detected by Validate.
func (g *Graph) Connect(e Edge) error {
	if _, ok := g.index[e.From]; !ok {
		return fmt.Errorf("dag: %s: edge from unknown function %q", g.Name, e.From)
	}
	if _, ok := g.index[e.To]; !ok {
		return fmt.Errorf("dag: %s: edge to unknown function %q", g.Name, e.To)
	}
	if e.From == e.To {
		return fmt.Errorf("dag: %s: self-loop on %q", g.Name, e.From)
	}
	if e.Calls < 0 {
		return fmt.Errorf("dag: %s: edge %s→%s has negative Calls", g.Name, e.From, e.To)
	}
	if e.Calls == 0 {
		e.Calls = 1
	}
	if e.PayloadKB < 0 {
		return fmt.Errorf("dag: %s: edge %s→%s has negative PayloadKB", g.Name, e.From, e.To)
	}
	if e.PayloadKB == 0 {
		e.PayloadKB = g.nodes[g.index[e.To]].Spec.PayloadKB
	}
	g.edges = append(g.edges, e)
	return nil
}

// Validate checks structural soundness: at least one function, no duplicate
// edges, and acyclicity. Add/Connect already reject unknown nodes,
// self-loops, and duplicate names at construction time.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("dag: %s: no functions", g.Name)
	}
	seen := make(map[[2]string]bool, len(g.edges))
	for _, e := range g.edges {
		k := [2]string{e.From, e.To}
		if seen[k] {
			return fmt.Errorf("dag: %s: duplicate edge %s→%s", g.Name, e.From, e.To)
		}
		seen[k] = true
	}
	_, err := g.topoOrder()
	return err
}

// topoOrder returns node indices in a deterministic topological order
// (Kahn's algorithm, insertion order among ready nodes), or an error naming
// a node on a cycle.
func (g *Graph) topoOrder() ([]int, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range g.edges {
		u, v := g.index[e.From], g.index[e.To]
		succ[u] = append(succ[u], v)
		indeg[v]++
	}
	order := make([]int, 0, n)
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		for _, v := range succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if len(order) != n {
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("dag: %s: cycle through %q", g.Name, g.names[i])
			}
		}
	}
	return order, nil
}

// rates returns each node's invocations per application request: entry
// nodes run once, downstream nodes accumulate rate×Calls over incoming
// edges (fan-out multiplies, joins sum).
func (g *Graph) rates() ([]float64, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	n := len(g.nodes)
	indeg := make([]int, n)
	for _, e := range g.edges {
		indeg[g.index[e.To]]++
	}
	rates := make([]float64, n)
	for _, i := range order {
		if indeg[i] == 0 {
			rates[i] = 1
		}
	}
	for _, u := range order {
		for _, e := range g.edges {
			if g.index[e.From] != u {
				continue
			}
			rates[g.index[e.To]] += rates[u] * e.Calls
		}
	}
	return rates, nil
}

// fusableChains returns the maximal chains of fusable edges, each a slice
// of node indices in invocation order. An edge is fusable when its trigger
// allows it, it fans out to exactly one call, its source has no other
// outgoing edge, and its target no other incoming edge — so a chain is a
// clean linear segment of the DAG and fusing any contiguous run of it
// cannot reorder or duplicate work.
func (g *Graph) fusableChains() [][]int {
	n := len(g.nodes)
	outdeg := make([]int, n)
	indeg := make([]int, n)
	for _, e := range g.edges {
		outdeg[g.index[e.From]]++
		indeg[g.index[e.To]]++
	}
	next := make([]int, n)
	hasNext := make([]bool, n)
	hasPrev := make([]bool, n)
	for _, e := range g.edges {
		u, v := g.index[e.From], g.index[e.To]
		if !e.Trigger.Fusable() || e.Calls != 1 || outdeg[u] != 1 || indeg[v] != 1 {
			continue
		}
		next[u] = v
		hasNext[u] = true
		hasPrev[v] = true
	}
	var chains [][]int
	for i := 0; i < n; i++ {
		if hasPrev[i] || !hasNext[i] {
			continue // not the head of a maximal chain
		}
		chain := []int{i}
		for u := i; hasNext[u]; u = next[u] {
			chain = append(chain, next[u])
		}
		chains = append(chains, chain)
	}
	sort.Slice(chains, func(a, b int) bool { return chains[a][0] < chains[b][0] })
	return chains
}
