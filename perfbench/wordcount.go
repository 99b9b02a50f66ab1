package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"i2mapreduce/internal/apps"
	"i2mapreduce/internal/datagen"
	"i2mapreduce/internal/ingest"
	"i2mapreduce/internal/kv"
)

// wordcount-stream: open-loop POST /ingest beside open-loop reads, on a
// fine-grain incremental WordCount served over HTTP.
const (
	wsTweets        = 20000
	wsVocab         = 50000
	wsWordsPerTweet = 8
	wsPostsPerSec   = 5
	wsPostRecords   = 100
	wsGetsPerSec    = 200
	wsMaxLag        = 50 * time.Millisecond
	// wsMGetKeys is the batch size of the final verification reads.
	wsMGetKeys = 500
)

// probe is the fresh word one POST carries: it becomes visible on /get
// when the batch holding the POST's records commits.
type probe struct {
	word     string
	due      time.Time
	accepted bool
	seen     bool
}

// wsState is the load generator's shared view of the run.
type wsState struct {
	mu      sync.Mutex
	probes  []probe
	counts  map[string]int // the oracle: corpus plus every accepted record
	initial map[string]int // the corpus alone
	reads   []wsRead       // Zipf-key answers, checked against both oracles at the end
	visible samples
	visTr   samples
	gets    samples
	posts   samples
}

type wsRead struct {
	key   string
	count int
	found bool
}

// wsPost builds POST i's records: fresh tweets over the corpus vocabulary
// and one probe tweet whose first word appears nowhere else.
func wsPost(seed int64, i int) ([]kv.Delta, string) {
	tweets := datagen.Tweets(seed*1_000_003+int64(i), wsPostRecords, wsVocab, wsWordsPerTweet)
	word := fmt.Sprintf("probe%06d", i)
	ds := make([]kv.Delta, len(tweets))
	for j, t := range tweets {
		v := t.Value
		if j == len(tweets)-1 {
			v = word + " " + v
		}
		ds[j] = kv.Delta{Key: fmt.Sprintf("s%06d-%03d", i, j), Value: v, Op: kv.OpInsert}
	}
	return ds, word
}

func runWordCountStream(r *run) error {
	r.sizes["tweets"] = wsTweets
	r.sizes["vocab"] = wsVocab
	r.sizes["words_per_tweet"] = wsWordsPerTweet
	r.sizes["ingest_records_per_s"] = wsPostsPerSec * wsPostRecords
	r.sizes["posts_per_s"] = wsPostsPerSec
	r.sizes["gets_per_s"] = wsGetsPerSec
	r.sizes["max_lag_ms"] = wsMaxLag.Milliseconds()
	docs := datagen.Tweets(r.seed, wsTweets, wsVocab, wsWordsPerTweet)
	st := &wsState{counts: apps.OfflineWordCount(docs)}
	st.initial = maps.Clone(st.counts)
	var args []string
	if r.traced {
		args = append(args, "-trace")
	}
	srv, err := setup(r, func(i int) (*server, error) {
		return startServer(filepath.Join(r.work, fmt.Sprintf("srv-%d", i)), docs, args...)
	}, func(s *server) { s.stop() })
	if err != nil {
		return err
	}
	defer srv.stop()
	keys := sortedKeys(st.initial)

	before, err := srv.report()
	if err != nil {
		return err
	}
	proc0, err := readProc(srv.pid())
	if err != nil {
		return err
	}
	nPosts := int(r.seconds.Seconds() * wsPostsPerSec)
	nGets := int(r.seconds.Seconds() * wsGetsPerSec)
	postEvery := time.Second / wsPostsPerSec
	getEvery := time.Second / wsGetsPerSec
	st.probes = make([]probe, nPosts)
	t0 := time.Now().Add(50 * time.Millisecond)
	rng := rand.New(rand.NewSource(r.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(keys)-1))
	getKeys := make([]string, nGets)
	for i := range getKeys {
		getKeys[i] = keys[zipf.Uint64()]
	}
	// One merged schedule: every post and get in due-time order.
	type op struct {
		due  time.Time
		post int // index of the post, or -1 for a get
		get  int
	}
	var ops []op
	// Probe polls leave every 2*getEvery, so a visibility time is rounded
	// up to that grid. Each post's due time is shifted by a random part of
	// one grid step, so the rounding averages out instead of moving the
	// median by a whole step.
	for i := 0; i < nPosts; i++ {
		jitter := time.Duration(rng.Int63n(int64(2 * getEvery)))
		ops = append(ops, op{due: t0.Add(time.Duration(i)*postEvery + jitter), post: i, get: -1})
	}
	for i := 0; i < nGets; i++ {
		ops = append(ops, op{due: t0.Add(time.Duration(i) * getEvery), post: -1, get: i})
	}
	slices.SortStableFunc(ops, func(a, b op) int { return a.due.Compare(b.due) })
	// Traced runs trace every other second of the schedule.
	tracedAt := func(due time.Time) bool { return r.tracedOp(int(due.Sub(t0) / time.Second)) }
	var replayKeys []string
	var failMu sync.Mutex
	fail := func(format string, args ...any) {
		failMu.Lock()
		r.fail(1, format, args...)
		failMu.Unlock()
	}

	late := openLoop(len(ops), func(i int) time.Time { return ops[i].due }, func(i int) {
		o := ops[i]
		traced := tracedAt(o.due)
		if o.post >= 0 {
			wsSendPost(r, srv, st, o.post, o.due, traced, fail)
			return
		}
		// Even gets read a Zipf key; odd gets poll the oldest unseen probe.
		key, pi := getKeys[o.get], -1
		if o.get%2 == 1 {
			st.mu.Lock()
			for j := range st.probes {
				if p := st.probes[j]; p.accepted && !p.seen {
					key, pi = p.word, j
					break
				}
			}
			st.mu.Unlock()
		}
		var tr *tracer
		if traced {
			tr = r.tr
		}
		sp := tr.start("client.get", int64(o.get), 0)
		v, err := srv.get(key, traceArg(tr, sp))
		tr.end(sp)
		done := time.Now()
		if err != nil {
			fail("get %s: %v", key, err)
			return
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		st.gets = append(st.gets, done.Sub(o.due).Seconds())
		if traced && len(replayKeys) < 20000 {
			replayKeys = append(replayKeys, key)
		}
		if pi < 0 {
			n, ok := countOf(v)
			st.reads = append(st.reads, wsRead{key: key, count: n, found: ok})
			return
		}
		if p := &st.probes[pi]; v.Found && !p.seen {
			if msg := checkValue(v, 1); msg != "" {
				fail("probe: %s", msg)
			}
			p.seen = true
			lat := done.Sub(p.due).Seconds()
			if tracedAt(p.due) {
				st.visTr = append(st.visTr, lat)
			} else {
				st.visible = append(st.visible, lat)
			}
		}
	})
	r.attempted += int64(len(ops))

	// The backlog must not grow across the run: compare the staging depth
	// after the posts of the last quarter with the first quarter's.
	mid, err := srv.report()
	if err != nil {
		return err
	}
	if q := len(mid.PostPending) / 4; q > 0 {
		first := quantileInts(mid.PostPending[:q])
		last := quantileInts(mid.PostPending[len(mid.PostPending)-q:])
		r.note("ingest backlog after a post: median %d records in the first quarter, %d in the last", first, last)
		if last > first+2*wsPostRecords {
			r.fail(1, "run invalid: the ingest backlog grew from %d to %d records, so the offered load is above what the system sustains", first, last)
		}
	}

	// Drain, then every accepted probe must be visible and every count
	// must equal the oracle.
	if err := srv.call(http.MethodPost, "/bench/flush", nil, "", nil); err != nil {
		return err
	}
	after, err := srv.report()
	if err != nil {
		return err
	}
	// A probe first seen here is checked but gives no visibility sample:
	// its time since due would include the drain itself.
	drained := 0
	for i := range st.probes {
		p := &st.probes[i]
		if !p.accepted || p.seen {
			continue
		}
		r.attempted++
		v, err := srv.get(p.word, "")
		if err != nil || !v.Found {
			r.fail(1, "probe %s still unseen after the final drain (%v)", p.word, err)
			continue
		}
		if msg := checkValue(v, 1); msg != "" {
			r.fail(1, "probe %s after the final drain: %s", p.word, msg)
		}
		p.seen = true
		drained++
	}
	r.note("probes first seen after the final drain (no visibility sample): %d", drained)
	for _, rd := range st.reads {
		if !rd.found || rd.count < st.initial[rd.key] || rd.count > st.counts[rd.key] {
			r.fail(1, "get %s during the run: %d (found %v), want between %d and %d",
				rd.key, rd.count, rd.found, st.initial[rd.key], st.counts[rd.key])
		}
	}
	verifyAll(r, srv, st.counts)
	for _, e := range after.RefreshErrors {
		r.fail(1, "refresh: %s", e)
	}
	if after.IngestErr != "" {
		r.fail(1, "ingester: %s", after.IngestErr)
	}

	if err := reportProcess(r, srv, proc0, before, after); err != nil {
		return err
	}
	r.reportOps(st.visible, st.visTr, st.posts, 0.9)
	r.note("%s", append(slices.Clone(st.visible), st.visTr...).describe("visible (post due->get)", 1e3, "ms"))
	r.note("%s", st.gets.describe("get (from due)", 1e3, "ms"))
	r.note("%s", st.posts.describe("ingest post (from due)", 1e3, "ms"))
	r.note("%s", late.describe("generator lateness", 1e3, "ms"))
	r.layer("loadgen.late_p50_ms", late.quantile(0.5)*1e3, "ms")
	r.layer("loadgen.late_p99_ms", late.quantile(0.99)*1e3, "ms")

	batches := after.Batches[len(before.Batches):]
	var recs, wait float64
	for _, b := range batches {
		recs += float64(b.Records)
		wait += b.StageWait
	}
	nb := float64(max(len(batches), 1))
	r.layer("ingest.batch_records", recs/nb, "count")
	r.layer("ingest.stage_wait_s", wait/nb, "s")
	r.layer("ingest.pending_peak", float64(slices.Max(append(after.PostPending, 0))), "count")
	rs := after.Refresh
	n := float64(max(rs.Count-before.Refresh.Count, 1))
	r.layer("results.dirty_partitions", float64(rs.DirtyParts-before.Refresh.DirtyParts)/n, "count")
	r.layer("results.bytes_rewritten_mb", float64(rs.BytesRewritten-before.Refresh.BytesRewritten)/n/(1<<20), "MiB")
	r.layer("results.segments", float64(after.Segments), "count")
	r.layer("results.compactions", float64(rs.Compactions-before.Refresh.Compactions)/n, "count")
	r.layer("results.blocks_read", float64(after.BlocksRead-before.BlocksRead)/float64(max(len(st.gets), 1)), "count/read")
	r.layer("shuffle.refresh.bytes", float64(rs.ShuffleBytes-before.Refresh.ShuffleBytes)/n, "B")
	r.layer("shuffle.refresh.spill_runs", float64(rs.SpillRuns-before.Refresh.SpillRuns)/n, "count")
	r.layer("shuffle.refresh.spill_mb", float64(rs.SpillBytes-before.Refresh.SpillBytes)/n/(1<<20), "MiB")
	after.MRBG.since(before.MRBG).record(r, n)
	if r.traced {
		return traceReads(r, srv, after.Spans, replayKeys)
	}
	return nil
}

// wsSendPost sends POST i and books its records into the oracle once
// the server accepts them.
func wsSendPost(r *run, srv *server, st *wsState, i int, due time.Time, traced bool, fail func(string, ...any)) {
	ds, word := wsPost(r.seed, i)
	req := ingest.HTTPIngestRequest{Deltas: make([]ingest.HTTPDelta, len(ds))}
	for j, d := range ds {
		req.Deltas[j] = ingest.HTTPDelta{Key: d.Key, Value: d.Value, Op: "+"}
	}
	body, err := json.Marshal(req)
	if err != nil {
		fail("post %d: %v", i, err)
		return
	}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	st.mu.Lock()
	st.probes[i] = probe{word: word, due: due}
	st.mu.Unlock()
	sp := tr.start("client.ingest", int64(i), 0)
	err = srv.call(http.MethodPost, "/ingest", body, traceArg(tr, sp), nil)
	tr.end(sp)
	done := time.Now()
	if err != nil {
		fail("post %d: %v", i, err)
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.posts = append(st.posts, done.Sub(due).Seconds())
	st.probes[i].accepted = true
	for _, d := range ds {
		for w, c := range apps.OfflineWordCount([]kv.Pair{{Key: d.Key, Value: d.Value}}) {
			st.counts[w] += c
		}
	}
}

// verifyAll reads every key of the oracle, plus as many absent keys,
// with /mget and checks each answer.
func verifyAll(r *run, srv *server, want map[string]int) {
	keys := sortedKeys(want)
	for i := 0; i < len(want)/10+1; i++ {
		keys = append(keys, fmt.Sprintf("absent%07d", i))
	}
	for lo := 0; lo < len(keys); lo += wsMGetKeys {
		batch := keys[lo:min(lo+wsMGetKeys, len(keys))]
		r.attempted++
		vals, err := srv.mget(batch)
		if err != nil {
			r.fail(1, "verification mget: %v", err)
			continue
		}
		for j, v := range vals {
			if v.Key != batch[j] {
				r.fail(1, "verification mget: answer %d is for %s, want %s", j, v.Key, batch[j])
				break
			}
			if msg := checkValue(v, want[v.Key]); msg != "" {
				r.fail(1, "verification: %s", msg)
				break
			}
		}
	}
}

// traceReads completes a traced HTTP run: it replays the traced reads in
// the server process, derives the per-layer read and refresh times from
// the spans of both processes, and writes the spans.
func traceReads(r *run, srv *server, serverSpans []span, gets []string) error {
	rep, err := srv.replay(gets)
	if err != nil {
		return err
	}
	spans := append(r.tr.all(), serverSpans...)
	sum := summarize(spans)
	r.layer("http.get.client_s", meanTotal(sum, "client.get"), "s")
	r.layer("http.get.server_s", meanTotal(sum, "http.get.server"), "s")
	r.layer("serve.get_s", rep.ServeGet, "s")
	r.layer("results.get_s", rep.ResultsGet, "s")
	r.layer("ingest.http_s", meanTotal(sum, "http.ingest.server"), "s")
	r.layer("dfs.write_deltas_s", meanTotal(sum, "dfs.write_deltas"), "s")
	r.layer("incr.refresh_s", meanTotal(sum, "incr.refresh"), "s")
	r.layer("serve.refresh_self_s", meanSelf(sum, "serve.refresh"), "s")
	return r.writeTrace(spans)
}

func traceArg(tr *tracer, sp span) string {
	if tr == nil {
		return ""
	}
	return formatTraceHeader(sp.Trace, sp.ID)
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func quantileInts(xs []int) int {
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[len(c)/2]
}
