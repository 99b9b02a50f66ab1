package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"i2mapreduce/internal/fsutil"
)

// span is one timed call into a layer. Start and End are wall-clock
// Unix nanoseconds, so spans recorded by the load generator and by the
// server process on the same machine share one time base. Trace groups
// the spans of one round, request or ingest batch; Parent is the ID of
// the span that caused this one (0 for a root). IDs carry the recording
// process in their high bits, so spans from two processes never collide.
type span struct {
	Name   string `json:"name"`
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	base  int64
	next  int64
	spans []span
}

func newTracer(process int64) *tracer { return &tracer{base: process << 40} }

// start opens a span; finish it with end.
func (t *tracer) start(name string, trace, parent int64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.base | t.next
	t.mu.Unlock()
	return span{Name: name, Trace: trace, ID: id, Parent: parent, Start: time.Now().UnixNano()}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = time.Now().UnixNano()
	t.add(s)
}

// add records a span whose end is already set.
func (t *tracer) add(ss ...span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// traceHeader carries "<trace>-<parent span>" from the load generator to
// the server, so server-side spans join the generator's trace tree.
const traceHeader = "X-Bench-Trace"

func formatTraceHeader(trace, parent int64) string {
	return strconv.FormatInt(trace, 10) + "-" + strconv.FormatInt(parent, 10)
}

func parseTraceHeader(h string) (trace, parent int64, ok bool) {
	a, b, found := strings.Cut(h, "-")
	if !found {
		return 0, 0, false
	}
	trace, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return trace, parent, err1 == nil && err2 == nil
}

// spanStat is the total and self time of all spans of one name. Self
// time is a span's duration minus the part of it its children cover.
type spanStat struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// summarize computes per-name totals and self times.
func summarize(spans []span) map[string]*spanStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.dur().Seconds()
		st.Self += (s.dur() - covered(s, children[s.ID])).Seconds()
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// meanSelf is the mean self time per span of one name, 0 if none ran.
func meanSelf(st map[string]*spanStat, name string) float64 {
	if s := st[name]; s != nil && s.Count > 0 {
		return s.Self / float64(s.Count)
	}
	return 0
}

// meanTotal is the mean duration per span of one name, 0 if none ran.
func meanTotal(st map[string]*spanStat, name string) float64 {
	if s := st[name]; s != nil && s.Count > 0 {
		return s.Total / float64(s.Count)
	}
	return 0
}

// writeSpans dumps the spans and their per-name summary as JSON.
func writeSpans(path string, spans []span) error {
	slices.SortFunc(spans, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	buf, err := json.MarshalIndent(struct {
		Summary map[string]*spanStat `json:"summary"`
		Spans   []span               `json:"spans"`
	}{summarize(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
