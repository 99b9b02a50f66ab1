package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	i2mr "i2mapreduce"
	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/incr"
	"i2mapreduce/internal/ingest"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/metrics"
	"i2mapreduce/internal/results"
	"i2mapreduce/internal/serve"
)

// The serve subcommand is the system under test of the HTTP workload. It
// wires the same calls as cmd/i2mr-serve -ingest — a fine-grain
// incremental WordCount, served by serve.Server, fed by an
// ingest.Ingester on POST /ingest — but reads its corpus from a file the
// load generator wrote, and adds /bench/ endpoints that report counters
// and spans, flush the ingester and replay reads in process.

// serverReport is what GET /bench/report returns.
type serverReport struct {
	Serve         serve.Stats `json:"serve"`
	IngestErr     string      `json:"ingest_err,omitempty"`
	Batches       []batchInfo `json:"batches"`
	PostPending   []int       `json:"post_pending"`
	Refresh       refreshSums `json:"refresh"`
	MRBG          mrbgStats   `json:"mrbg"`
	BlocksRead    int64       `json:"blocks_read"`
	BloomSkips    int64       `json:"bloom_skips"`
	Segments      int64       `json:"segments"`
	TotalAllocMB  float64     `json:"total_alloc_mb"`
	NumGC         uint32      `json:"num_gc"`
	Spans         []span      `json:"spans,omitempty"`
	RefreshErrors []string    `json:"refresh_errors,omitempty"`
}

// batchInfo is one applied ingest batch.
type batchInfo struct {
	Records   int     `json:"records"`
	StageWait float64 `json:"stage_wait_s"`
}

// refreshSums adds up the reports of the one-step refreshes.
type refreshSums struct {
	Count          int64 `json:"count"`
	DirtyParts     int64 `json:"dirty_partitions"`
	BytesRewritten int64 `json:"bytes_rewritten"`
	Compactions    int64 `json:"compactions"`
	ShuffleBytes   int64 `json:"shuffle_bytes"`
	SpillRuns      int64 `json:"spill_runs"`
	SpillBytes     int64 `json:"spill_bytes"`
}

// replayRequest asks the server to time reads in process.
type replayRequest struct {
	Gets []string `json:"gets"`
}

type replayResult struct {
	ServeGet   float64 `json:"serve_get_s"`
	ResultsGet float64 `json:"results_get_s"`
}

type benchServer struct {
	sys    *i2mr.System
	runner *incr.Runner
	srv    *serve.Server
	ing    *ingest.Ingester
	tr     *tracer

	mu          sync.Mutex
	batches     []batchInfo
	postPending []int
	refresh     refreshSums
	refreshErrs []string
	batchRoot   span // root span of the batch being applied
	batchSeq    int64
}

func serveMain(args []string) error {
	fl := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fl.String("dir", "", "work directory")
	corpus := fl.String("corpus", "", "corpus file: one tab-separated key and value per line")
	trace := fl.Bool("trace", false, "record spans")
	if err := fl.Parse(args); err != nil {
		return err
	}
	docs, err := readCorpus(*corpus)
	if err != nil {
		return err
	}
	b := &benchServer{}
	if *trace {
		b.tr = newTracer(2)
	}
	if b.sys, err = i2mr.New(i2mr.Options{WorkDir: filepath.Join(*dir, "sys"), Nodes: 4}); err != nil {
		return err
	}
	if err := b.sys.WritePairs("tweets", docs); err != nil {
		return err
	}
	if b.runner, err = b.sys.NewOneStep(apps.FineGrainWordCountJob("wordcount")); err != nil {
		return err
	}
	defer b.runner.Close()
	if _, err := b.runner.RunInitial("tweets", "wc-v1"); err != nil {
		return err
	}
	if b.srv, err = serve.NewOneStep(b.runner, serve.Options{}); err != nil {
		return err
	}
	defer b.srv.Close()

	b.ing, err = ingest.Open(ingest.Config{
		Dir:            filepath.Join(*dir, "ingest-wal"),
		Refresh:        b.refreshBatch,
		WriteDeltas:    b.writeDeltas,
		AppliedJobs:    b.runner.CompletedJobs,
		Policy:         ingest.Policy{MaxLag: wsMaxLag},
		OnBatchApplied: b.batchApplied,
	})
	if err != nil {
		return err
	}
	b.ing.AttachTo(b.srv)
	b.ing.Start()
	handler := b.traced(b.srv.HandlerWith(map[string]http.Handler{
		"/ingest":       b.ingestHandler(b.ing.Handler()),
		"/bench/report": http.HandlerFunc(b.handleReport),
		"/bench/replay": http.HandlerFunc(b.handleReplay),
		"/bench/flush":  http.HandlerFunc(b.handleFlush),
	}))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Printf("READY %s\n", ln.Addr())
	select {
	case <-ctx.Done():
	case err := <-served:
		return err
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return b.ing.Close()
}

func readCorpus(path string) ([]kv.Pair, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []kv.Pair
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("corpus line %d: no tab", len(docs)+1)
		}
		docs = append(docs, kv.Pair{Key: k, Value: v})
	}
	return docs, sc.Err()
}

// traced wraps the server's routes: a request carrying the trace header
// gets a span named after its path, parented to the generator's span.
func (b *benchServer) traced(h http.Handler) http.Handler {
	if b.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		trace, parent, ok := parseTraceHeader(req.Header.Get(traceHeader))
		if !ok {
			h.ServeHTTP(w, req)
			return
		}
		sp := b.tr.start("http"+strings.ReplaceAll(req.URL.Path, "/", ".")+".server", trace, parent)
		h.ServeHTTP(w, req)
		b.tr.end(sp)
	})
}

// ingestHandler records the staging depth after every accepted POST, the
// series the load generator uses to tell a growing backlog.
func (b *benchServer) ingestHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(w, req)
		pending := b.ing.Stats().PendingRecords
		b.mu.Lock()
		b.postPending = append(b.postPending, pending)
		b.mu.Unlock()
	})
}

// writeDeltas is the ingester's WriteDeltas hook; it opens the span tree
// of the batch it writes.
func (b *benchServer) writeDeltas(path string, ds []kv.Delta) error {
	b.mu.Lock()
	b.batchSeq++
	b.batchRoot = b.tr.start("ingest.batch", -b.batchSeq, 0)
	root := b.batchRoot
	b.mu.Unlock()
	sp := b.tr.start("dfs.write_deltas", root.Trace, root.ID)
	err := b.sys.WriteDeltas(path, ds)
	b.tr.end(sp)
	return err
}

// refreshBatch is the ingester's Refresh hook: the same calls as
// ingest.BindServe, with the engine refresh timed inside the serving
// layer's refresh.
func (b *benchServer) refreshBatch(deltaInput, output string, _ int64) error {
	b.mu.Lock()
	root := b.batchRoot
	b.mu.Unlock()
	sp := b.tr.start("serve.refresh", root.Trace, root.ID)
	err := b.srv.Refresh(func() error {
		isp := b.tr.start("incr.refresh", root.Trace, sp.ID)
		res, err := b.runner.Refresh(deltaInput, output)
		b.tr.end(isp)
		if err != nil {
			return err
		}
		rep := res.Report
		b.mu.Lock()
		b.refresh.Count++
		b.refresh.DirtyParts += rep.Counter(metrics.CounterResultDirtyPartitions)
		b.refresh.BytesRewritten += rep.Counter(metrics.CounterResultBytesRewritten)
		b.refresh.Compactions += rep.Counter(metrics.CounterResultCompactions)
		b.refresh.ShuffleBytes += rep.Counter(metrics.CounterShuffleBytes)
		b.refresh.SpillRuns += rep.Counter(metrics.CounterSpillRuns)
		b.refresh.SpillBytes += rep.Counter(metrics.CounterSpillBytes)
		b.mu.Unlock()
		return nil
	})
	b.tr.end(sp)
	if err != nil {
		b.mu.Lock()
		b.refreshErrs = append(b.refreshErrs, err.Error())
		b.mu.Unlock()
	}
	return err
}

// batchApplied closes the batch's root span: it runs from the enqueue of
// the batch's oldest record to the commit.
func (b *benchServer) batchApplied(info ingest.Batch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.batches = append(b.batches, batchInfo{
		Records:   info.Records,
		StageWait: (info.Applied.Sub(info.Oldest) - info.Wall).Seconds(),
	})
	if b.tr != nil {
		root := b.batchRoot
		root.Start = info.Oldest.UnixNano()
		root.End = info.Applied.UnixNano()
		b.tr.add(root)
	}
}

func (b *benchServer) handleReport(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep := serverReport{
		Serve:        b.srv.Stats(),
		MRBG:         storeStats(b.runner.Stores()),
		TotalAllocMB: float64(ms.TotalAlloc) / (1 << 20),
		NumGC:        ms.NumGC,
		Spans:        b.tr.all(),
	}
	for _, st := range b.runner.Results() {
		s := st.Stats()
		rep.BlocksRead += s.BlocksRead
		rep.BloomSkips += s.BloomSkips
		rep.Segments += int64(s.Segments)
	}
	if err := b.ing.Stats().Err; err != nil {
		rep.IngestErr = err.Error()
	}
	b.mu.Lock()
	rep.Batches = append([]batchInfo(nil), b.batches...)
	rep.PostPending = append([]int(nil), b.postPending...)
	rep.Refresh = b.refresh
	rep.RefreshErrors = append([]string(nil), b.refreshErrs...)
	b.mu.Unlock()
	writeBenchJSON(w, rep)
}

// handleFlush drains the ingester and waits until the last batch's
// OnBatchApplied has run.
func (b *benchServer) handleFlush(w http.ResponseWriter, _ *http.Request) {
	if err := b.ing.Flush(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	want := b.ing.Stats().Batches
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		b.mu.Lock()
		n := int64(len(b.batches))
		b.mu.Unlock()
		if n >= want {
			break
		}
	}
	writeBenchJSON(w, map[string]bool{"flushed": true})
}

// handleReplay times, in process, the serving layer's Get and the result
// store's snapshot Get on the keys the generator sent over HTTP,
// splitting the read path below the HTTP handler.
func (b *benchServer) handleReplay(w http.ResponseWriter, req *http.Request) {
	var rr replayRequest
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var res replayResult
	var err error
	res.ServeGet = timeEach(len(rr.Gets), func(i int) error {
		_, _, _, err := b.srv.Get(rr.Gets[i])
		return err
	}, &err)
	stores := b.runner.Results()
	snaps := make([]*results.Snapshot, len(stores))
	for i, st := range stores {
		snaps[i] = st.Snapshot()
	}
	res.ResultsGet = timeEach(len(rr.Gets), func(i int) error {
		key := rr.Gets[i]
		_, _, err := snaps[kv.Partition(key, len(snaps))].Get(key)
		return err
	}, &err)
	for _, sn := range snaps {
		sn.Close()
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBenchJSON(w, res)
}

// timeEach runs f n times and returns the mean seconds per call; the
// first error is kept in errp.
func timeEach(n int, f func(i int) error, errp *error) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil && *errp == nil {
			*errp = err
		}
	}
	return time.Since(start).Seconds() / float64(n)
}

func writeBenchJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve: writing response:", err)
	}
}
