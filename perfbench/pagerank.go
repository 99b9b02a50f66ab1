package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"

	i2mr "i2mapreduce"
	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/core"
	"i2mapreduce/internal/datagen"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/mrbg"
)

// pagerank-evolve: two twin incremental PageRank runners over one graph.
// Every round rewires one out-edge of each of prRewirePerRound vertices,
// then refreshes runner A incrementally (RunIncremental) and runner B
// with the planner's recompute arm (RunIncrementalFull) on the same
// delta.
//
// The rounds take the vertices in the order of a permutation drawn from
// the seed, so a run of prVertices/prRewirePerRound rounds rewires every
// vertex once. The seed picks how the vertices are grouped into rounds
// and where their edges go, but not which vertices move: within one run,
// refreshes cost from 150 to 550 ms of user CPU depending on the
// vertices they move, and a run that drew its vertices at random would
// also draw how many expensive ones it moved.
const (
	prVertices   = 3000
	prDegree     = 4
	prPartitions = 4
	prFilter     = 0.001
	prBudget     = 128 << 10
	// prRewirePerRound makes a 40-round run, the benchmark's 40 seconds,
	// rewire every vertex once: 2.5% of the vertices per round.
	prRewirePerRound = prVertices / 40
	// The two arms must agree per key within prAgree, the CPC error bound
	// internal/core's CPC test asserts, or within prAgreeRel of the rank,
	// whichever is larger. CPC withholds changes up to the filter threshold
	// on every in-link; since rank(v) >= d(1-d) * sum over in-links u of
	// 1/outdeg(u), the withheld mass at v is at most
	// filter/(1-d) * rank(v). The rank term matters only at hubs: on one
	// seed a hub of rank 434 differed between the arms by 0.35.
	prAgree    = 0.2
	prAgreeRel = prFilter / (1 - apps.DefaultDamping)
	// prExact bounds the recompute arm's distance from the exact ranks;
	// it converges to within the filter threshold.
	prExact = 0.02
	// prMaxIterations caps each job's loop. A rewire that moves a hub of
	// rank in the hundreds needs more than the engine's default 50
	// iterations to settle below the 0.001 threshold; a refresh that still
	// does not converge counts as failed.
	prMaxIterations = 500
	// prOfflineIters runs the offline oracle well past convergence.
	prOfflineIters = 200
	// prRoundsPerSecond sets the fixed number of rounds a run measures
	// from --seconds: a round, quiescing included, takes about a second on
	// the two-core machine the workload was sized on. The work is fixed
	// rather than the time, so a faster commit is not measured on a
	// longer-evolved graph.
	prRoundsPerSecond = 1
	// prGraphSeed fixes the starting graph; --seed drives the rewiring.
	// How many iterations PageRank needs depends on the graph: across
	// generator seeds the initial runs and refreshes needed up to 1.5x
	// the iterations, which would make set-up and refresh times measure
	// the seed rather than the code.
	prGraphSeed = 1
)

type prSystem struct {
	dir   string
	sys   *i2mr.System
	a, b  *core.Runner
	graph []kv.Pair
}

func (p *prSystem) close() {
	p.a.Close()
	p.b.Close()
	os.RemoveAll(p.dir)
}

func prConfig() i2mr.IncrementalConfig {
	return i2mr.IncrementalConfig{
		NumPartitions:       prPartitions,
		MaxIterations:       prMaxIterations,
		CPC:                 true,
		FilterThreshold:     prFilter,
		Checkpoint:          true,
		ShuffleMemoryBudget: prBudget,
	}
}

// prSetUp writes the graph and runs both runners' initial jobs.
func prSetUp(dir string) (*prSystem, error) {
	graph := datagen.Graph(prGraphSeed, prVertices, prDegree)
	sys, err := i2mr.New(i2mr.Options{WorkDir: dir, Nodes: prPartitions})
	if err != nil {
		return nil, err
	}
	if err := sys.WritePairs("graph-0", graph); err != nil {
		return nil, err
	}
	p := &prSystem{dir: dir, sys: sys, graph: graph}
	if p.a, err = sys.NewIncremental(apps.PageRankSpec("pr-refresh", apps.DefaultDamping), prConfig()); err != nil {
		return nil, err
	}
	if p.b, err = sys.NewIncremental(apps.PageRankSpec("pr-recompute", apps.DefaultDamping), prConfig()); err != nil {
		p.a.Close()
		return nil, err
	}
	for _, rn := range []*core.Runner{p.a, p.b} {
		if _, err := rn.RunInitial("graph-0"); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// prArm accumulates one refresh arm's per-round results.
type prArm struct {
	wall, sys        samples
	user, userTraced samples
	iterations       int
	iterSeconds      float64
	propagated       int64
	filtered         int64
	stages           [5]float64
	shuffleBytes     int64
	spillRuns        int64
	spillBytes       int64
	state            map[string]int64
}

func (a *prArm) add(res *core.Result, wall time.Duration, cpu cpuTime, traced bool) {
	a.wall = append(a.wall, wall.Seconds())
	a.sys = append(a.sys, cpu.sys.Seconds())
	if traced {
		a.userTraced = append(a.userTraced, cpu.user.Seconds())
	} else {
		a.user = append(a.user, cpu.user.Seconds())
	}
	a.iterations += res.Iterations
	// Per-iteration counters live in PerIter; Result.Report holds only the
	// job-level sums, which omit the shuffle spill counters.
	for _, it := range res.PerIter {
		a.iterSeconds += it.Duration.Seconds()
		a.propagated += int64(it.Propagated)
		a.filtered += int64(it.Filtered)
		a.shuffleBytes += it.Stages.Counters[metrics.CounterShuffleBytes]
		a.spillRuns += it.Stages.Counters[metrics.CounterSpillRuns]
		a.spillBytes += it.Stages.Counters[metrics.CounterSpillBytes]
	}
	for i, st := range metrics.Stages() {
		a.stages[i] += res.Report.Stage(st).Seconds()
	}
	if a.state == nil {
		a.state = map[string]int64{}
	}
	for _, c := range []string{metrics.CounterStateGroupsFlushed, metrics.CounterStateDirtyPartitions,
		metrics.CounterStateCompactions} {
		a.state[c] += res.Report.Counter(c)
	}
	a.state[metrics.CounterStateSegments] = res.Report.Counter(metrics.CounterStateSegments)
}

func (a *prArm) rounds() float64 { return float64(len(a.wall)) }

func (a *prArm) allUser() samples { return append(append(samples{}, a.user...), a.userTraced...) }

// cpuTime is CPU time spent in user mode and in the kernel.
type cpuTime struct{ user, sys time.Duration }

// processCPU returns the CPU time this process has used. The kernel
// leaves out the time its threads waited for a CPU and, with paravirtual
// steal accounting, the time the hypervisor stole from its virtual CPUs.
func processCPU() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}
	}
	return cpuTime{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}
}

func (c cpuTime) since(base cpuTime) cpuTime { return cpuTime{c.user - base.user, c.sys - base.sys} }

func runPageRank(r *run) error {
	r.sizes["vertices"] = prVertices
	r.sizes["graph_seed"] = prGraphSeed
	r.sizes["degree"] = prDegree
	r.sizes["partitions"] = prPartitions
	r.sizes["rewired_per_round"] = prRewirePerRound
	r.sizes["filter_threshold"] = prFilter
	r.sizes["shuffle_budget_bytes"] = prBudget
	p, err := setup(r, func(i int) (*prSystem, error) {
		return prSetUp(filepath.Join(r.work, fmt.Sprintf("sys-%d", i)))
	}, (*prSystem).close)
	if err != nil {
		return err
	}
	defer p.close()
	// The measured rounds run on one P. With two, the refreshes' CPU time
	// also counts the Go scheduler spinning for work on the idle P, which
	// varies with the neighbours' load: on one seed the run-to-run spread
	// of the refresh's CPU time fell from 11% to 5% on one P, for a wall
	// time about as long as with two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r.sizes["gomaxprocs_measured"] = 1

	mrbgBase := storeStats(p.a.Stores())
	order := rand.New(rand.NewSource(r.seed)).Perm(prVertices)
	var refresh, recompute prArm
	var writeDeltas samples
	var lastDrift float64
	var cpu0 runtime.MemStats
	runtime.ReadMemStats(&cpu0)
	proc0, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	rounds := max(int(r.seconds.Seconds()*prRoundsPerSecond), 2)
	for round := 1; round <= rounds; round++ {
		var tr *tracer
		traced := r.tracedOp(round)
		if traced {
			tr = r.tr
		}
		root := tr.start("round", int64(round), 0)
		deltas := p.rewire(rand.New(rand.NewSource(r.seed*1000+int64(round))), order, round)
		path := "delta-" + strconv.Itoa(round)
		sp := tr.start("dfs.write_deltas", int64(round), root.ID)
		t := time.Now()
		if err := p.sys.WriteDeltas(path, deltas); err != nil {
			return err
		}
		writeDeltas = append(writeDeltas, time.Since(t).Seconds())
		tr.end(sp)
		// Each round starts quiesced, outside the timed calls: the previous
		// round's garbage collected and its unsynced writes flushed, so one
		// round's clean-up does not land in the next round's timing.
		runtime.GC()
		syscall.Sync()

		r.attempted += 2
		sp = tr.start("core.refresh", int64(round), root.ID)
		t, c := time.Now(), processCPU()
		resA, err := p.a.RunIncremental(path)
		wallA, cpuA := time.Since(t), processCPU().since(c)
		tr.end(sp)
		if err != nil {
			r.fail(2, "round %d: RunIncremental: %v", round, err)
			break
		}
		refresh.add(resA, wallA, cpuA, traced)
		if !resA.Converged {
			r.fail(1, "round %d: RunIncremental did not converge in %d iterations", round, resA.Iterations)
		}

		// The recompute arm starts with the refresh's garbage collected.
		runtime.GC()
		sp = tr.start("core.recompute", int64(round), root.ID)
		t, c = time.Now(), processCPU()
		resB, err := p.b.RunIncrementalFull(path)
		wallB, cpuB := time.Since(t), processCPU().since(c)
		tr.end(sp)
		if err != nil {
			r.fail(1, "round %d: RunIncrementalFull: %v", round, err)
			break
		}
		recompute.add(resB, wallB, cpuB, traced)
		if !resB.Converged {
			r.fail(1, "round %d: RunIncrementalFull did not converge in %d iterations", round, resB.Iterations)
		}

		sp = tr.start("oracle.agree", int64(round), root.ID)
		bad, drift, worst := compareStates(p.a.State(), p.b.State(), prAgree, prAgreeRel)
		if bad > 0 {
			r.fail(1, "round %d: %d keys differ between the arms by more than max(%g, %g x rank) (worst %s)",
				round, bad, prAgree, prAgreeRel, worst)
		}
		tr.end(sp)
		r.note("round %2d: refresh %4.0f ms (CPU %4.0f ms user, %3.0f ms system) in %2d iterations, "+
			"recompute %5.0f ms (CPU %4.0f ms user, %3.0f ms system) in %2d iterations, arms differ by at most %.4f",
			round, wallA.Seconds()*1e3, cpuA.user.Seconds()*1e3, cpuA.sys.Seconds()*1e3, resA.Iterations,
			wallB.Seconds()*1e3, cpuB.user.Seconds()*1e3, cpuB.sys.Seconds()*1e3, resB.Iterations, drift)
		lastDrift = drift
		tr.end(root)
	}
	proc1, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	// Once per run: the recompute arm against the exact ranks of the
	// final graph.
	r.attempted++
	want := apps.OfflinePageRank(p.graph, apps.DefaultDamping, prOfflineIters)
	exact := make(map[string]string, len(want))
	for k, v := range want {
		exact[k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	if bad, _, worst := compareStates(p.b.State(), exact, prExact, 0); bad > 0 {
		r.fail(1, "recompute arm: %d keys differ from the offline ranks by more than %g (worst %s)", bad, prExact, worst)
	}

	rss, err := procStatusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return err
	}
	disk, err := dirMB(p.dir)
	if err != nil {
		return err
	}
	// The arms' user CPU time is gated: their wall and system time moved
	// several times as much with the host's load (README.md).
	r.reportOps(refresh.user, refresh.userTraced, recompute.allUser(), 0.5)
	r.endToEnd("rss_peak_mb", rss, "MiB")
	r.endToEnd("disk_mb", disk, "MiB")
	r.sizes["rounds"] = refresh.rounds()
	r.note("%s", refresh.wall.describe("refresh (incremental)", 1, "s"))
	r.note("%s", recompute.wall.describe("recompute (full)", 1, "s"))
	r.note("%s", refresh.allUser().describe("refresh user CPU", 1, "s"))
	r.note("%s", recompute.allUser().describe("recompute user CPU", 1, "s"))
	r.note("%s", refresh.sys.describe("refresh system CPU", 1, "s"))
	r.note("%s", recompute.sys.describe("recompute system CPU", 1, "s"))
	r.note("speed-up of the median refresh over the median recompute: %.2fx wall, %.2fx user CPU",
		recompute.wall.quantile(0.5)/refresh.wall.quantile(0.5),
		recompute.allUser().quantile(0.5)/refresh.allUser().quantile(0.5))

	n := refresh.rounds()
	r.layer("core.refresh.iterations", float64(refresh.iterations)/n, "count")
	r.layer("core.refresh.iter_s", refresh.iterSeconds/n, "s")
	r.layer("core.refresh.outside_iter_s", refresh.wall.mean()-refresh.iterSeconds/n, "s")
	r.layer("core.cpc.filtered_ratio", ratio(refresh.filtered, refresh.filtered+refresh.propagated), "ratio")
	r.layer("core.cpc.drift", lastDrift, "abs")
	r.layer("core.recompute.iterations", float64(recompute.iterations)/n, "count")
	r.layer("core.recompute.iter_s", recompute.iterSeconds/n, "s")
	r.layer("core.stage.map.task_s", refresh.stages[metrics.StageMap]/n, "s")
	r.layer("core.stage.sort.task_s", refresh.stages[metrics.StageSort]/n, "s")
	r.layer("core.stage.reduce.task_s", refresh.stages[metrics.StageReduce]/n, "s")
	r.layer("core.stage.checkpoint_s", refresh.stages[metrics.StageCheckpoint]/n, "s")
	r.layer("shuffle.refresh.bytes", float64(refresh.shuffleBytes)/n, "B")
	r.layer("shuffle.refresh.spill_runs", float64(refresh.spillRuns)/n, "count")
	r.layer("shuffle.refresh.spill_mb", float64(refresh.spillBytes)/n/(1<<20), "MiB")
	r.layer("shuffle.recompute.bytes", float64(recompute.shuffleBytes)/n, "B")
	r.layer("shuffle.recompute.spill_runs", float64(recompute.spillRuns)/n, "count")
	r.layer("shuffle.recompute.spill_mb", float64(recompute.spillBytes)/n/(1<<20), "MiB")
	storeStats(p.a.Stores()).since(mrbgBase).record(r, n)
	r.layer("results.state.groups_flushed", float64(refresh.state[metrics.CounterStateGroupsFlushed])/n, "count")
	r.layer("results.state.dirty_partitions", float64(refresh.state[metrics.CounterStateDirtyPartitions])/n, "count")
	r.layer("results.state.segments", float64(refresh.state[metrics.CounterStateSegments]), "count")
	r.layer("results.state.compactions", float64(refresh.state[metrics.CounterStateCompactions])/n, "count")
	r.layer("dfs.write_deltas_s", writeDeltas.mean(), "s")
	proc1.since(proc0).record(r)
	r.layer("go.alloc_mb", float64(mem.TotalAlloc-cpu0.TotalAlloc)/(1<<20), "MiB")
	r.layer("go.gc_cycles", float64(mem.NumGC-cpu0.NumGC), "count")
	if r.traced {
		return r.writeTrace(r.tr.all())
	}
	return nil
}

// rewire retargets one out-edge of each vertex the given round takes
// from order, a permutation of the vertices, and returns the delta in
// the graph's key order.
func (p *prSystem) rewire(rng *rand.Rand, order []int, round int) []kv.Delta {
	idx := make([]int, prRewirePerRound)
	for i := range idx {
		idx[i] = order[((round-1)*prRewirePerRound+i)%len(order)]
	}
	slices.Sort(idx)
	rewrite := datagen.RewireGraphValue(prVertices)
	var ds []kv.Delta
	for _, v := range idx {
		old := p.graph[v]
		nv := rewrite(rng, old.Key, old.Value)
		if nv == old.Value {
			continue
		}
		ds = append(ds, kv.Delta{Key: old.Key, Value: old.Value, Op: kv.OpDelete},
			kv.Delta{Key: old.Key, Value: nv, Op: kv.OpInsert})
		p.graph[v].Value = nv
	}
	return ds
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// compareStates counts keys whose float values differ by more than
// max(tol, rel*|want|), or that only one side has, and returns the largest
// difference.
func compareStates(got, want map[string]string, tol, rel float64) (bad int, worstD float64, worst string) {
	worstD = -1
	for k, w := range want {
		g, ok := got[k]
		d, limit := 1e300, tol
		if ok {
			gf, err1 := strconv.ParseFloat(g, 64)
			wf, err2 := strconv.ParseFloat(w, 64)
			if err1 == nil && err2 == nil {
				d, limit = abs(gf-wf), max(tol, rel*abs(wf))
			}
		}
		if d > limit {
			bad++
		}
		if d > worstD {
			worstD, worst = d, fmt.Sprintf("%s: %s vs %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad++
			worst = k + ": unexpected key"
		}
	}
	return bad, worstD, worst
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// mrbgStats is the summed MRBG-Store statistics of a runner's stores.
type mrbgStats mrbg.Stats

func storeStats(stores []*mrbg.ShardedStore) mrbgStats {
	var s mrbgStats
	for _, st := range stores {
		x := st.Stats()
		s.Reads += x.Reads
		s.BytesRead += x.BytesRead
		s.CacheHits += x.CacheHits
		s.AppendedChunks += x.AppendedChunks
		s.FileBytes += x.FileBytes
		s.LiveBytes += x.LiveBytes
	}
	return s
}

// since keeps the I/O counters accumulated after base and the current
// file sizes.
func (s mrbgStats) since(base mrbgStats) mrbgStats {
	s.Reads -= base.Reads
	s.BytesRead -= base.BytesRead
	s.CacheHits -= base.CacheHits
	s.AppendedChunks -= base.AppendedChunks
	return s
}

// record stores the counters per refresh (n refreshes) as metrics.
func (s mrbgStats) record(r *run, n float64) {
	r.layer("mrbg.reads", float64(s.Reads)/n, "count")
	r.layer("mrbg.bytes_read_mb", float64(s.BytesRead)/n/(1<<20), "MiB")
	r.layer("mrbg.cache_hits", float64(s.CacheHits)/n, "count")
	r.layer("mrbg.appended_chunks", float64(s.AppendedChunks)/n, "count")
	r.layer("mrbg.space_amp", ratio(s.FileBytes, s.LiveBytes), "ratio")
}
