package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/serve"
)

// workers is the load generator's concurrency: goroutines and HTTP
// connections. It matches the two cores the benchmark was sized on.
const workers = 2

// server is a running serve subprocess and a client bound to it.
type server struct {
	dir  string
	cmd  *exec.Cmd
	base string
	hc   *http.Client
}

// startServer writes the corpus, starts the serve subcommand on it and
// waits until it listens.
func startServer(dir string, docs []kv.Pair, args ...string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	corpus := filepath.Join(dir, "corpus.tsv")
	if err := writeCorpus(corpus, docs); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"serve", "-dir", dir, "-corpus", corpus}, args...)...)
	cmd.Stderr = os.Stderr
	// The server dies with the generator, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "READY ")
	if err != nil || !ok {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("server did not start (%q, %v)", line, err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	return &server{dir: dir, cmd: cmd, base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}, nil
}

func writeCorpus(path string, docs []kv.Pair) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, d := range docs {
		fmt.Fprintf(w, "%s\t%s\n", d.Key, d.Value)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop ends the server gracefully (it drains its ingester), killing it
// if it does not exit in time, and removes its directory.
func (s *server) stop() error {
	s.hc.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		err = fmt.Errorf("server did not stop: %v", <-done)
	}
	os.RemoveAll(s.dir)
	return err
}

// call sends one request and decodes a 2xx JSON answer into out. Any
// other status is an error.
func (s *server) call(method, path string, body []byte, trace string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

func (s *server) get(key, trace string) (serve.HTTPValue, error) {
	var resp serve.HTTPGetResponse
	err := s.call(http.MethodGet, "/get?key="+url.QueryEscape(key), nil, trace, &resp)
	return resp.HTTPValue, err
}

func (s *server) mget(keys []string) ([]serve.HTTPValue, error) {
	body, err := json.Marshal(map[string][]string{"keys": keys})
	if err != nil {
		return nil, err
	}
	var resp serve.HTTPMGetResponse
	if err := s.call(http.MethodPost, "/mget", body, "", &resp); err != nil {
		return nil, err
	}
	if len(resp.Values) != len(keys) {
		return nil, fmt.Errorf("mget: %d values for %d keys", len(resp.Values), len(keys))
	}
	return resp.Values, nil
}

func (s *server) report() (serverReport, error) {
	var rep serverReport
	err := s.call(http.MethodGet, "/bench/report", nil, "", &rep)
	return rep, err
}

// replay asks the server to time the given reads in process.
func (s *server) replay(gets []string) (replayResult, error) {
	body, err := json.Marshal(replayRequest{Gets: gets})
	if err != nil {
		return replayResult{}, err
	}
	var res replayResult
	err = s.call(http.MethodPost, "/bench/replay", body, "", &res)
	return res, err
}

// rssMB is the server's peak resident set (VmHWM).
func (s *server) rssMB() (float64, error) { return procStatusMB(s.pid(), "VmHWM") }

// waitUntil sleeps until shortly before t and spins the rest, so an
// open-loop request leaves within microseconds of its due time. The
// sleep is a nanosleep system call: the Go runtime's timers can fire up
// to a millisecond late.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 100*time.Microsecond; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
	}
}

// openLoop sends n scheduled requests on the generator's workers. Each
// worker takes the next request, waits for its due time and sends it; a
// request whose worker is still busy leaves late, and its latency, timed
// from the due time, includes that wait. It returns how late each
// request left, in seconds.
func openLoop(n int, due func(i int) time.Time, send func(i int)) samples {
	late := make(samples, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d := due(i)
				waitUntil(d)
				late[i] = time.Since(d).Seconds()
				send(i)
			}
		}()
	}
	wg.Wait()
	return late
}

// reportProcess records the server's end-to-end resource metrics and
// its process, runtime and serving counters over the measured window.
func reportProcess(r *run, s *server, base procCounters, before, after serverReport) error {
	rss, err := s.rssMB()
	if err != nil {
		return err
	}
	disk, err := dirMB(s.dir)
	if err != nil {
		return err
	}
	r.endToEnd("rss_peak_mb", rss, "MiB")
	r.endToEnd("disk_mb", disk, "MiB")
	pc, err := readProc(s.pid())
	if err != nil {
		return err
	}
	pc.since(base).record(r)
	r.layer("go.alloc_mb", after.TotalAllocMB-before.TotalAllocMB, "MiB")
	r.layer("go.gc_cycles", float64(after.NumGC-before.NumGC), "count")
	flips := after.Serve.EpochFlips - before.Serve.EpochFlips
	hits := after.Serve.CacheHits - before.Serve.CacheHits
	misses := after.Serve.CacheMisses - before.Serve.CacheMisses
	r.layer("serve.epoch_flips", float64(flips), "count")
	r.layer("serve.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	blocks := after.BlocksRead - before.BlocksRead
	skips := after.BloomSkips - before.BloomSkips
	r.layer("results.bloom_skip_ratio", ratio(skips, skips+blocks), "ratio")
	r.note("server: %d epoch flips, block cache %d hits / %d misses, %d blocks read, %d bloom skips, %d segments",
		flips, hits, misses, blocks, skips, after.Segments)
	return nil
}
