package dag

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"sizeless/internal/fleetsynth"
	"sizeless/internal/loadgen"
	"sizeless/internal/optimizer"
	"sizeless/internal/platform"
	"sizeless/internal/pool"
	"sizeless/internal/xrand"
)

// DefaultTradeoff is the S_total tradeoff used when Config.Tradeoff is
// zero — the paper's recommended t = 0.75 (cost-prioritizing).
const DefaultTradeoff = 0.75

// Config parameterizes application planning. The zero value of every field
// has a sensible default, so Config{Platform: platform.DefaultConfig()} is
// a working configuration.
type Config struct {
	// Platform is the target provider: pricing, resource model, cold-start
	// model, keep-alive. Pricing must be non-nil.
	Platform platform.Config
	// Sizes is the candidate memory grid. Empty means every size of the
	// platform grid (or the standard six, for a zero grid) that all
	// functions have a time for.
	Sizes []platform.MemorySize
	// Tradeoff is the S_total parameter t in (0, 1]; zero selects
	// DefaultTradeoff. (A pure-performance plan wants a small positive t.)
	Tradeoff float64
	// Rate is the application request rate in req/s driving the cold-start
	// exposure model; zero means 10.
	Rate float64
	// Seed derives the arrival schedules replayed through the warm-pool
	// model. Plans are bit-identical per seed.
	Seed int64
	// Workers bounds the fusion-plan fan-out (default GOMAXPROCS).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Tradeoff == 0 {
		c.Tradeoff = DefaultTradeoff
	}
	if c.Rate <= 0 {
		c.Rate = 10
	}
	return c
}

// GroupPlan is one deployable unit of a plan: a single function, or a
// fused chain of functions running back to back in one instance.
type GroupPlan struct {
	// Functions are the member names in invocation order (len > 1 means a
	// fused unit).
	Functions []string
	// Memory is the chosen size.
	Memory platform.MemorySize
	// ExecTimeMs is the unit's (composed) execution time at Memory.
	ExecTimeMs float64
	// ColdFraction is the fraction of invocations landing on a cold
	// instance under the warm-pool model at the unit's arrival rate.
	ColdFraction float64
	// LatencyMs is ExecTimeMs plus the expected cold-start penalty.
	LatencyMs float64
	// Rate is the unit's invocations per application request.
	Rate float64
	// CostPerReq is the unit's compute + request cost per application
	// request (edge/trigger charges are accounted separately).
	CostPerReq float64
}

// Plan is a complete deployment decision for an application with its
// end-to-end score.
type Plan struct {
	// App names the application, Tradeoff the t it was planned under.
	App      string
	Tradeoff float64
	// Groups are the deployable units in topological order of their heads.
	Groups []GroupPlan
	// InvocationsPerReq is the total function invocations one application
	// request triggers (fusion reduces it; sizes never change it).
	InvocationsPerReq float64
	// LatencyMs is the end-to-end critical-path latency.
	LatencyMs float64
	// NodeCostPerReq, EdgeCostPerReq, and CostPerReq decompose the bill
	// per application request: compute+request charges, trigger charges,
	// and their sum.
	NodeCostPerReq float64
	EdgeCostPerReq float64
	CostPerReq     float64
	// SCost, SPerf, STotal score the plan against the best cost and
	// latency reachable anywhere in the planner's search space, mirroring
	// the per-function optimizer's §3.5 normalization.
	SCost, SPerf, STotal float64
}

// FusedUnits counts groups with more than one member.
func (p *Plan) FusedUnits() int {
	n := 0
	for _, g := range p.Groups {
		if len(g.Functions) > 1 {
			n++
		}
	}
	return n
}

// Comparison is the three-way planning result the app-matrix experiment
// renders: the per-function baseline and the two application-level plans,
// all scored against one shared normalization. The application-level
// plans are searched under a no-regression rule — only candidates whose
// end-to-end cost AND critical-path latency are ≤ the per-function
// baseline's are admitted (the baseline's own assignment always
// qualifies, so the rule never makes a plan infeasible). Application-
// aware planning is therefore a Pareto refinement of the paper's
// optimizer: it may only improve the deployed application.
type Comparison struct {
	// PerFunction sizes every function independently with the §3.5
	// optimizer, ignoring the graph.
	PerFunction *Plan
	// SizesOnly jointly sizes all functions under the end-to-end
	// objective without fusing any, never regressing PerFunction.
	SizesOnly *Plan
	// Fused jointly chooses fusion decisions and sizes, never
	// regressing PerFunction on either axis.
	Fused *Plan
}

// limit restricts a search to candidates that regress neither axis of a
// reference plan (Compare's no-regression rule).
type limit struct {
	maxCost, maxLat float64
}

// segTable caches the per-size economics of one deployable unit (a
// contiguous chain segment or a singleton): composed execution time,
// cold-start exposure, latency, and cost per application request.
type segTable struct {
	members []int
	names   []string
	rate    float64 // invocations per application request
	cold    []float64
	timeMs  []float64
	latMs   []float64
	cost    []float64
	ok      []bool
	minCost float64
	minLat  float64
	nOK     int
}

// shape is one fusion plan: a partition of the graph into deployable
// units plus the contracted DAG between them. Everything except the
// per-group size choice is fixed.
type shape struct {
	groups   []*segTable
	order    []int // group indices in topological order
	preds    [][]shapePred
	edgeCost float64 // per-request trigger+transfer charges (size-independent)
	// minCostSum / minLatLB are reachability lower bounds used for
	// normalization and pruning.
	minCostSum float64
	minLatLB   float64
	feasible   bool
}

type shapePred struct {
	src   int
	latMs float64
}

// planner holds the shared evaluation state for one (graph, config) pair.
type planner struct {
	g      *Graph
	cfg    Config
	sizes  []platform.MemorySize
	rates  []float64
	defs   map[Trigger]TriggerProfile
	segs   map[string]*segTable
	scheds map[string]loadgen.Schedule
	shapes []*shape // all fusion plans; index 0 is the all-singleton plan
	cmin   float64
	lmin   float64
}

func newPlanner(g *Graph, cfg Config) (*planner, error) {
	if g == nil {
		return nil, fmt.Errorf("dag: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Platform.Pricing == nil {
		return nil, fmt.Errorf("dag: %s: Config.Platform.Pricing is nil", g.Name)
	}
	if !(cfg.Tradeoff >= 0 && cfg.Tradeoff <= 1) { // also rejects NaN
		return nil, fmt.Errorf("dag: %s: tradeoff %v outside [0,1]", g.Name, cfg.Tradeoff)
	}
	rates, err := g.rates()
	if err != nil {
		return nil, err
	}
	p := &planner{
		g:      g,
		cfg:    cfg,
		rates:  rates,
		defs:   DefaultTriggerProfiles(),
		segs:   make(map[string]*segTable),
		scheds: make(map[string]loadgen.Schedule),
	}
	if p.sizes, err = p.candidateSizes(); err != nil {
		return nil, err
	}
	// Build every deployable unit this graph can produce — all singletons
	// plus every contiguous segment of every fusable chain — sequentially,
	// so the cold-start schedules are sampled in a deterministic order
	// before any parallel search begins.
	for i := range g.nodes {
		if _, err := p.segment([]int{i}); err != nil {
			return nil, err
		}
	}
	chains := g.fusableChains()
	for _, chain := range chains {
		for lo := 0; lo < len(chain); lo++ {
			for hi := lo + 1; hi < len(chain); hi++ {
				if _, err := p.segment(chain[lo : hi+1]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := p.buildShapes(chains); err != nil {
		return nil, err
	}
	return p, nil
}

// candidateSizes resolves the planning grid: cfg.Sizes, or the platform
// grid filtered to sizes every function has a positive time for.
func (p *planner) candidateSizes() ([]platform.MemorySize, error) {
	if len(p.cfg.Sizes) > 0 {
		out := append([]platform.MemorySize(nil), p.cfg.Sizes...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	grid := p.cfg.Platform.Grid.Sizes()
	if len(grid) == 0 {
		grid = platform.StandardSizes()
	}
	out := make([]platform.MemorySize, 0, len(grid))
	for _, m := range grid {
		all := true
		for i := range p.g.nodes {
			if t, ok := p.g.nodes[i].Times[m]; !ok || t <= 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dag: %s: no memory size is covered by every function's times", p.g.Name)
	}
	return out, nil
}

func segKey(members []int) string {
	k := ""
	for i, m := range members {
		if i > 0 {
			k += ","
		}
		k += strconv.Itoa(m)
	}
	return k
}

// schedule returns the deterministic constant-rate arrival schedule for a
// unit invoked rate× per application request, sampled once per distinct
// rate and cached.
func (p *planner) schedule(rate float64) (loadgen.Schedule, error) {
	rps := p.cfg.Rate * rate
	key := strconv.FormatFloat(rps, 'g', -1, 64)
	if s, ok := p.scheds[key]; ok {
		return s, nil
	}
	// Horizon targets ~2000 arrivals, clamped to [10s, 120s] so sparse
	// apps still see keep-alive expiry pressure and dense apps stay cheap.
	horizon := time.Duration(2000 / rps * float64(time.Second))
	if horizon < 10*time.Second {
		horizon = 10 * time.Second
	}
	if horizon > 120*time.Second {
		horizon = 120 * time.Second
	}
	rng := xrand.New(p.cfg.Seed).Derive("dag/cold/" + key)
	sched, err := loadgen.Sample(loadgen.ConstantProfile{RPS: rps}, horizon, rng)
	if err != nil {
		return nil, fmt.Errorf("dag: %s: cold-start schedule: %w", p.g.Name, err)
	}
	p.scheds[key] = sched
	return sched, nil
}

// segment builds (or returns the cached) per-size table for one unit.
func (p *planner) segment(members []int) (*segTable, error) {
	key := segKey(members)
	if s, ok := p.segs[key]; ok {
		return s, nil
	}
	fns := make([]Function, len(members))
	names := make([]string, len(members))
	for i, m := range members {
		fns[i] = p.g.nodes[m]
		names[i] = p.g.names[m]
	}
	st := &segTable{
		members: append([]int(nil), members...),
		names:   names,
		rate:    p.rates[members[0]],
		cold:    make([]float64, len(p.sizes)),
		timeMs:  make([]float64, len(p.sizes)),
		latMs:   make([]float64, len(p.sizes)),
		cost:    make([]float64, len(p.sizes)),
		ok:      make([]bool, len(p.sizes)),
		minCost: math.Inf(1),
		minLat:  math.Inf(1),
	}
	sched, err := p.schedule(st.rate)
	if err != nil {
		return nil, err
	}
	for si, m := range p.sizes {
		t, ok := composeTime(&p.cfg.Platform.Resources, fns, m)
		if !ok {
			continue
		}
		dur := time.Duration(t * float64(time.Millisecond))
		cold := fleetsynth.ColdFraction(sched, dur, p.cfg.Platform.KeepAlive)
		lat := t + cold*float64(p.cfg.Platform.ColdStartDelay(m))/float64(time.Millisecond)
		st.timeMs[si] = t
		st.cold[si] = cold
		st.latMs[si] = lat
		st.cost[si] = st.rate * p.cfg.Platform.Pricing.Cost(m, dur)
		st.ok[si] = true
		st.nOK++
		st.minCost = math.Min(st.minCost, st.cost[si])
		st.minLat = math.Min(st.minLat, lat)
	}
	p.segs[key] = st
	return st, nil
}

// buildShapes enumerates every fusion plan: the cross product, over the
// maximal fusable chains, of each chain's contiguous segmentations. Shape 0
// is always the all-singleton (no fusion) plan.
func (p *planner) buildShapes(chains [][]int) error {
	inChain := make([]bool, len(p.g.nodes))
	for _, c := range chains {
		for _, n := range c {
			inChain[n] = true
		}
	}
	// cuts[i] selects one segmentation per chain via a bitmask over the
	// chain's internal boundaries; mask 0 is "no fusion".
	masks := make([]int, len(chains))
	for {
		if err := p.addShape(chains, masks, inChain); err != nil {
			return err
		}
		// Odometer increment over the per-chain masks.
		i := 0
		for ; i < len(chains); i++ {
			masks[i]++
			if masks[i] < 1<<(len(chains[i])-1) {
				break
			}
			masks[i] = 0
		}
		if i == len(chains) {
			break
		}
	}
	if len(p.shapes) == 0 || !p.shapes[0].feasible {
		return fmt.Errorf("dag: %s: no feasible size assignment (check Sizes against function times)", p.g.Name)
	}
	p.cmin, p.lmin = math.Inf(1), math.Inf(1)
	for _, sh := range p.shapes {
		if !sh.feasible {
			continue
		}
		p.cmin = math.Min(p.cmin, sh.minCostSum)
		p.lmin = math.Min(p.lmin, sh.minLatLB)
	}
	if p.cmin <= 0 || math.IsInf(p.cmin, 1) || p.lmin <= 0 || math.IsInf(p.lmin, 1) {
		return fmt.Errorf("dag: %s: degenerate normalization (cmin=%v, lmin=%v)", p.g.Name, p.cmin, p.lmin)
	}
	return nil
}

// addShape materializes the fusion plan selected by the per-chain masks:
// mask bit b set fuses chain members b and b+1 into the same group.
func (p *planner) addShape(chains [][]int, masks []int, inChain []bool) error {
	var groups []*segTable
	for ci, chain := range chains {
		mask := masks[ci]
		lo := 0
		for b := 0; b < len(chain); b++ {
			if b < len(chain)-1 && mask&(1<<b) != 0 {
				continue // boundary fused: extend the current run
			}
			st, err := p.segment(chain[lo : b+1])
			if err != nil {
				return err
			}
			groups = append(groups, st)
			lo = b + 1
		}
	}
	for i := range p.g.nodes {
		if !inChain[i] {
			st, err := p.segment([]int{i})
			if err != nil {
				return err
			}
			groups = append(groups, st)
		}
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].members[0] < groups[b].members[0] })

	sh := &shape{groups: groups, feasible: true}
	groupOf := make([]int, len(p.g.nodes))
	for gi, st := range groups {
		for _, m := range st.members {
			groupOf[m] = gi
		}
	}
	sh.preds = make([][]shapePred, len(groups))
	indeg := make([]int, len(groups))
	succ := make([][]int, len(groups))
	for _, e := range p.g.edges {
		u, v := p.g.index[e.From], p.g.index[e.To]
		gu, gv := groupOf[u], groupOf[v]
		if gu == gv {
			continue
		}
		tp := p.defs[e.Trigger]
		lat := tp.LatencyMs + e.PayloadKB*payloadTransferMsPerKB
		sh.edgeCost += p.rates[u] * e.Calls * tp.CostPerInvoke
		sh.preds[gv] = append(sh.preds[gv], shapePred{src: gu, latMs: lat})
		succ[gu] = append(succ[gu], gv)
		indeg[gv]++
	}
	// Deterministic topological order over groups (graph acyclicity was
	// already validated, and contracting clean chain segments cannot
	// introduce a cycle).
	sh.order = make([]int, 0, len(groups))
	ready := make([]int, 0, len(groups))
	for gi := range groups {
		if indeg[gi] == 0 {
			ready = append(ready, gi)
		}
	}
	for len(ready) > 0 {
		gi := ready[0]
		ready = ready[1:]
		sh.order = append(sh.order, gi)
		for _, gv := range succ[gi] {
			indeg[gv]--
			if indeg[gv] == 0 {
				ready = append(ready, gv)
			}
		}
	}
	if len(sh.order) != len(groups) {
		return fmt.Errorf("dag: %s: internal error: contracted graph not acyclic", p.g.Name)
	}

	sh.minCostSum = sh.edgeCost
	finish := make([]float64, len(groups))
	for gi, st := range groups {
		if st.nOK == 0 {
			sh.feasible = false
			break
		}
		sh.minCostSum += st.minCost
		finish[gi] = 0
	}
	if sh.feasible {
		// Latency lower bound: critical path with every group at its own
		// minimum latency (not jointly achievable in general, but a valid
		// bound for normalization and pruning).
		for _, gi := range sh.order {
			start := 0.0
			for _, pr := range sh.preds[gi] {
				start = math.Max(start, finish[pr.src]+pr.latMs)
			}
			finish[gi] = start + sh.groups[gi].minLat
		}
		sh.minLatLB = 0
		for _, f := range finish {
			sh.minLatLB = math.Max(sh.minLatLB, f)
		}
	}
	p.shapes = append(p.shapes, sh)
	return nil
}

// eval computes a candidate's total cost per request and critical-path
// latency. assign holds one size index per group; finish is scratch of
// len(groups).
func (sh *shape) eval(assign []int, finish []float64) (cost, lat float64) {
	cost = sh.edgeCost
	for gi, st := range sh.groups {
		cost += st.cost[assign[gi]]
	}
	for _, gi := range sh.order {
		start := 0.0
		for _, pr := range sh.preds[gi] {
			start = math.Max(start, finish[pr.src]+pr.latMs)
		}
		finish[gi] = start + sh.groups[gi].latMs[assign[gi]]
	}
	lat = 0
	for _, f := range finish {
		lat = math.Max(lat, f)
	}
	return cost, lat
}

func (p *planner) score(cost, lat float64) float64 {
	t := p.cfg.Tradeoff
	return t*cost/p.cmin + (1-t)*lat/p.lmin
}

// searchShape finds the shape's S_total-minimizing size assignment
// within lim by a depth-first search over every group's sizes, pruned by
// cost and latency lower bounds. Ties prefer the assignment encountered
// first in ascending-size enumeration order — i.e. smaller memory sizes,
// mirroring the per-function optimizer's tie rule. Returns nil if the
// shape is infeasible (or nothing in it satisfies lim).
func (p *planner) searchShape(sh *shape, lim *limit) []int {
	if !sh.feasible {
		return nil
	}
	if sh.minCostSum > lim.maxCost || sh.minLatLB > lim.maxLat {
		return nil // even the shape's lower bounds regress the reference
	}
	n := len(sh.groups)
	// suffixMin[i] = Σ_{j ≥ i} min group cost: the cost lower bound for
	// the not-yet-assigned tail, used to prune on the cost term alone
	// (the latency term's lower bound is the shape constant minLatLB).
	suffixMin := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		suffixMin[i] = suffixMin[i+1] + sh.groups[i].minCost
	}
	t := p.cfg.Tradeoff
	latLB := (1 - t) * sh.minLatLB / p.lmin

	assign := make([]int, n)
	best := make([]int, n)
	finish := make([]float64, n)
	bestS := math.Inf(1)
	var dfs func(gi int, partialCost float64)
	dfs = func(gi int, partialCost float64) {
		if t*(partialCost+suffixMin[gi])/p.cmin+latLB >= bestS {
			return
		}
		if partialCost+suffixMin[gi] > lim.maxCost {
			return // no completion of this prefix can stay under the cap
		}
		if gi == n {
			cost, lat := sh.eval(assign, finish)
			if cost > lim.maxCost || lat > lim.maxLat {
				return
			}
			if s := p.score(cost, lat); s < bestS {
				bestS = s
				copy(best, assign)
			}
			return
		}
		st := sh.groups[gi]
		for si := range p.sizes {
			if !st.ok[si] {
				continue
			}
			assign[gi] = si
			dfs(gi+1, partialCost+st.cost[si])
		}
	}
	dfs(0, sh.edgeCost)
	if math.IsInf(bestS, 1) {
		return nil
	}
	return best
}

// plan assembles the public Plan for a searched shape.
func (p *planner) plan(sh *shape, assign []int) *Plan {
	finish := make([]float64, len(sh.groups))
	cost, lat := sh.eval(assign, finish)
	pl := &Plan{
		App:            p.g.Name,
		Tradeoff:       p.cfg.Tradeoff,
		LatencyMs:      lat,
		EdgeCostPerReq: sh.edgeCost,
		CostPerReq:     cost,
		NodeCostPerReq: cost - sh.edgeCost,
		SCost:          cost / p.cmin,
		SPerf:          lat / p.lmin,
		STotal:         p.score(cost, lat),
	}
	for _, gi := range sh.order {
		st := sh.groups[gi]
		si := assign[gi]
		pl.Groups = append(pl.Groups, GroupPlan{
			Functions:    append([]string(nil), st.names...),
			Memory:       p.sizes[si],
			ExecTimeMs:   st.timeMs[si],
			ColdFraction: st.cold[si],
			LatencyMs:    st.latMs[si],
			Rate:         st.rate,
			CostPerReq:   st.cost[si],
		})
		pl.InvocationsPerReq += st.rate
	}
	return pl
}

// perFunction sizes every function independently with the per-function
// optimizer and evaluates the resulting all-singleton assignment under the
// end-to-end model. It also returns the assignment itself so Compare can
// reuse it as the incumbent of the constrained searches.
func (p *planner) perFunction() (*Plan, []int, error) {
	sh := p.shapes[0]
	assign := make([]int, len(sh.groups))
	for gi, st := range sh.groups {
		node := p.g.nodes[st.members[0]]
		times := make(map[platform.MemorySize]float64, len(p.sizes))
		for si, m := range p.sizes {
			if !st.ok[si] {
				continue
			}
			times[m] = node.Times[m]
		}
		rec, err := optimizer.Optimize(times, p.cfg.Platform.Pricing, p.cfg.Tradeoff)
		if err != nil {
			return nil, nil, fmt.Errorf("dag: %s: per-function baseline for %q: %w", p.g.Name, st.names[0], err)
		}
		for si, m := range p.sizes {
			if m == rec.Best {
				assign[gi] = si
			}
		}
	}
	return p.plan(sh, assign), assign, nil
}

// Compare runs all three planning modes over one shared normalization, so
// the S scores (and cost/latency) are directly comparable. The two
// application-level plans minimize S_total within the region that
// regresses neither the baseline's end-to-end cost nor its critical-path
// latency; the baseline assignment itself is the incumbent, so both are
// always feasible and win exact ties (a deploy-what-you-have answer when
// nothing strictly better exists). Every fusion plan is searched once:
// SizesOnly is the best of the all-singleton plan, Fused the best of all
// plans. Since the fused search space contains the sizes-only space and
// both share the constraint and incumbent,
// STotal(Fused) ≤ STotal(SizesOnly) ≤ STotal(PerFunction) always holds.
func Compare(ctx context.Context, g *Graph, cfg Config) (*Comparison, error) {
	p, err := newPlanner(g, cfg)
	if err != nil {
		return nil, err
	}
	base, baseAssign, err := p.perFunction()
	if err != nil {
		return nil, err
	}
	lim := &limit{maxCost: base.CostPerReq, maxLat: base.LatencyMs}
	assigns := make([][]int, len(p.shapes))
	err = pool.Run(ctx, len(p.shapes), p.cfg.Workers, func(i int) error {
		assigns[i] = p.searchShape(p.shapes[i], lim)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// best picks the lowest S_total among the first n shapes' optima, with
	// the baseline assignment as the incumbent; the incumbent and earlier
	// shapes win exact ties, so the result is the same at any worker count.
	best := func(n int) *Plan {
		pl := p.plan(p.shapes[0], baseAssign)
		for i, assign := range assigns[:n] {
			if assign == nil {
				continue
			}
			if c := p.plan(p.shapes[i], assign); c.STotal < pl.STotal {
				pl = c
			}
		}
		return pl
	}
	return &Comparison{PerFunction: base, SizesOnly: best(1), Fused: best(len(p.shapes))}, nil
}
