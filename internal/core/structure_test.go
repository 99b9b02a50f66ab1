package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"i2mapreduce/internal/kv"
)

func identity(s string) string { return s }

// prefixProject groups structure keys by their first byte — a
// many-to-one projection like GIM-V's (i,j) -> j.
func prefixProject(s string) string {
	if s == "" {
		return s
	}
	return s[:1]
}

func TestBuildStructPartSpansCoverFile(t *testing.T) {
	dir := t.TempDir()
	ps := []kv.Pair{
		{Key: "b1", Value: "x"},
		{Key: "a2", Value: "yy"},
		{Key: "a1", Value: "zzz"},
		{Key: "c9", Value: ""},
	}
	sp, err := buildStructPart(filepath.Join(dir, "part"), ps, prefixProject)
	if err != nil {
		t.Fatal(err)
	}
	if sp.recs != 4 {
		t.Fatalf("recs = %d", sp.recs)
	}
	// Spans must tile the file exactly: sorted by dk, contiguous,
	// summing to the file length.
	var total int64
	for _, dk := range []string{"a", "b", "c"} {
		s, ok := sp.spans[dk]
		if !ok {
			t.Fatalf("no span for %q", dk)
		}
		total += s.len
	}
	if total != sp.bytes {
		t.Fatalf("spans cover %d bytes, file has %d", total, sp.bytes)
	}
	// Records within a span are exactly those projecting to it.
	var got []string
	n, err := sp.readDKsSorted([]string{"a"}, func(dk string, p kv.Pair) error {
		if dk != "a" || prefixProject(p.Key) != "a" {
			return fmt.Errorf("record %q delivered for %q, read span a", p.Key, dk)
		}
		got = append(got, p.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != sp.spans["a"].len {
		t.Fatalf("readDKsSorted read %d bytes, span is %d", n, sp.spans["a"].len)
	}
	if !reflect.DeepEqual(got, []string{"a1", "a2"}) {
		t.Fatalf("span a = %v, want [a1 a2]", got)
	}
}

func TestReadDKMissingIsNoop(t *testing.T) {
	dir := t.TempDir()
	sp, err := buildStructPart(filepath.Join(dir, "part"), []kv.Pair{{Key: "a", Value: "1"}}, identity)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sp.readDKsSorted([]string{"missing"}, func(string, kv.Pair) error {
		t.Fatal("callback invoked for missing dk")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("readDKsSorted(missing) = %d bytes, err %v", n, err)
	}
}

func TestReadDKsSortedSelective(t *testing.T) {
	dir := t.TempDir()
	var ps []kv.Pair
	for i := 0; i < 100; i++ {
		ps = append(ps, kv.Pair{Key: fmt.Sprintf("k%03d", i), Value: fmt.Sprintf("v%d", i)})
	}
	sp, err := buildStructPart(filepath.Join(dir, "part"), ps, identity)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"k005", "k050", "k099"}
	var got []string
	n, err := sp.readDKsSorted(want, func(dk string, p kv.Pair) error {
		if dk != p.Key {
			return fmt.Errorf("dk %q delivered record %q", dk, p.Key)
		}
		got = append(got, p.Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selective read = %v, want %v", got, want)
	}
	if n >= sp.bytes {
		t.Fatalf("selective read touched %d of %d bytes; expected far less", n, sp.bytes)
	}
}

// smallSpansPart builds a partition of n state keys with one short
// record each: the shape of a PageRank structure partition.
func smallSpansPart(tb testing.TB, n int) (*structPart, []string) {
	tb.Helper()
	ps := make([]kv.Pair, 0, n)
	dks := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("v%07d", i)
		ps = append(ps, kv.Pair{Key: k, Value: fmt.Sprintf("v%07d v%07d", (i+1)%n, (i+7)%n)})
		dks = append(dks, k)
	}
	sp, err := buildStructPart(filepath.Join(tb.TempDir(), "part"), ps, identity)
	if err != nil {
		tb.Fatal(err)
	}
	return sp, dks
}

// TestReadDKsSortedAllocatesPerRecordNotPerSpan guards the selective
// Map's span reads: each state key costs its decoded key and value, not
// a fresh read buffer and decoder (a 64 KiB bufio.Reader per key once
// made this loop a quarter of a PageRank refresh's CPU).
func TestReadDKsSortedAllocatesPerRecordNotPerSpan(t *testing.T) {
	const n, reps = 1000, 3
	sp, dks := smallSpansPart(t, n)
	read := func() {
		if _, err := sp.readDKsSorted(dks, func(string, kv.Pair) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm up: first-use allocations are not per key
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perKey := float64(after.TotalAlloc-before.TotalAlloc) / (reps * n)
	// A record here is 8+17 bytes of key and value; 1 KiB per key is
	// generous headroom for the string copies, yet 64x below one
	// 64 KiB buffer per key.
	if perKey > 1024 {
		t.Fatalf("readDKsSorted allocated %.0f bytes per state key; want <= 1024", perKey)
	}
}

func BenchmarkReadDKsSorted(b *testing.B) {
	sp, dks := smallSpansPart(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp.readDKsSorted(dks, func(string, kv.Pair) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadDKsSortedCorruptSpan corrupts one span so a length prefix
// claims more bytes than the span holds. The read buffer is shared
// across spans and was last filled by a larger span, so a decode that
// ran past the span's end would find stale, well-formed records there;
// it must instead fail with kv.ErrCorrupt.
func TestReadDKsSortedCorruptSpan(t *testing.T) {
	var ps []kv.Pair
	for i := 0; i < 20; i++ {
		ps = append(ps, kv.Pair{Key: fmt.Sprintf("a%02d", i), Value: "x"})
	}
	ps = append(ps, kv.Pair{Key: "b1", Value: "y"}, kv.Pair{Key: "c1", Value: "z"})
	sp, err := buildStructPart(filepath.Join(t.TempDir(), "part"), ps, prefixProject)
	if err != nil {
		t.Fatal(err)
	}
	// Span b is one frame: 0x02 "b1" 0x01 "y". Claim a 2-byte value:
	// past the span's end the stale buffer holds span a's bytes, which
	// would decode as value "yx" followed by whole records of span a.
	b := sp.spans["b"]
	if b.len != 5 {
		t.Fatalf("span b is %d bytes, want 5", b.len)
	}
	f, err := os.OpenFile(sp.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x02}, b.off+3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	_, err = sp.readDKsSorted([]string{"a", "b", "c"}, func(dk string, p kv.Pair) error {
		if dk != "a" {
			return fmt.Errorf("record %q/%q delivered for span %q", p.Key, p.Value, dk)
		}
		got = append(got, p.Key)
		return nil
	})
	if !errors.Is(err, kv.ErrCorrupt) {
		t.Fatalf("corrupt span read: err = %v, want kv.ErrCorrupt", err)
	}
	if len(got) != 20 {
		t.Fatalf("span a delivered %d records before the corrupt span, want 20", len(got))
	}
}

// TestReadDKsSortedTruncatedFile cuts the partition file inside its
// last span: the read must fail, never panic, and never deliver a
// record of the cut span.
func TestReadDKsSortedTruncatedFile(t *testing.T) {
	sp, dks := smallSpansPart(t, 10)
	last := sp.spans[dks[len(dks)-1]]
	if err := os.Truncate(sp.path, last.off+last.len-1); err != nil {
		t.Fatal(err)
	}
	var n int
	_, err := sp.readDKsSorted(dks, func(dk string, p kv.Pair) error {
		if dk == dks[len(dks)-1] {
			return fmt.Errorf("record %q delivered from the truncated span", p.Key)
		}
		n++
		return nil
	})
	if !errors.Is(err, io.EOF) && !errors.Is(err, kv.ErrCorrupt) {
		t.Fatalf("truncated file read: err = %v, want a wrapped io.EOF or kv.ErrCorrupt", err)
	}
	if n != len(dks)-1 {
		t.Fatalf("delivered %d intact spans, want %d", n, len(dks)-1)
	}
}

// TestReadDKsSortedByteFlipSweep flips every byte of a partition file in
// turn. Whatever the flip, the read must not panic, and every record it
// delivers for a state key must be a frame lying inside that key's
// span: corruption may garble a span but never leak another span's
// bytes into it.
func TestReadDKsSortedByteFlipSweep(t *testing.T) {
	var ps []kv.Pair
	for _, k := range []string{"a1", "a2", "a3", "b1", "c1", "c2"} {
		ps = append(ps, kv.Pair{Key: k, Value: "val-" + k})
	}
	sp, err := buildStructPart(filepath.Join(t.TempDir(), "part"), ps, prefixProject)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(sp.path)
	if err != nil {
		t.Fatal(err)
	}
	dks := []string{"a", "b", "c"}
	for off := range orig {
		flipped := append([]byte(nil), orig...)
		flipped[off] ^= 0xff
		if err := os.WriteFile(sp.path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := sp.readDKsSorted(dks, func(dk string, p kv.Pair) error {
			s := sp.spans[dk]
			if !bytes.Contains(flipped[s.off:s.off+s.len], appendPairFrame(nil, p)) {
				return fmt.Errorf("flip at %d: record %q/%q is not inside span %q", off, p.Key, p.Value, dk)
			}
			return nil
		})
		if err != nil && !errors.Is(err, kv.ErrCorrupt) {
			t.Fatal(err)
		}
	}
}

func TestApplyDeltaRoundTripProperty(t *testing.T) {
	// For random record sets and random delete/insert splits, applying
	// the delta must yield exactly the expected multiset.
	f := func(seed int64, nByte uint8) bool {
		dir := t.TempDir()
		n := int(nByte%20) + 1
		var ps []kv.Pair
		for i := 0; i < n; i++ {
			ps = append(ps, kv.Pair{Key: fmt.Sprintf("k%02d", i), Value: fmt.Sprintf("v%02d", i)})
		}
		sp, err := buildStructPart(filepath.Join(dir, fmt.Sprintf("p%d", seed)), ps, identity)
		if err != nil {
			return false
		}
		// Delete the even records, insert replacements.
		var ds []kv.Delta
		expect := map[string]string{}
		for i, p := range ps {
			if i%2 == 0 {
				ds = append(ds, kv.Delta{Key: p.Key, Value: p.Value, Op: kv.OpDelete})
				ds = append(ds, kv.Delta{Key: p.Key, Value: "new-" + p.Value, Op: kv.OpInsert})
				expect[p.Key] = "new-" + p.Value
			} else {
				expect[p.Key] = p.Value
			}
		}
		sp2, err := sp.applyDelta(ds, identity)
		if err != nil {
			return false
		}
		got := map[string]string{}
		if err := sp2.readAll(func(p kv.Pair) error {
			got[p.Key] = p.Value
			return nil
		}); err != nil {
			return false
		}
		return reflect.DeepEqual(got, expect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyDeltaChainedWithinBatch(t *testing.T) {
	dir := t.TempDir()
	sp, err := buildStructPart(filepath.Join(dir, "p"), []kv.Pair{{Key: "a", Value: "v1"}}, identity)
	if err != nil {
		t.Fatal(err)
	}
	// v1 -> v2 -> v3 within one batch must net to v3.
	ds := []kv.Delta{
		{Key: "a", Value: "v1", Op: kv.OpDelete},
		{Key: "a", Value: "v2", Op: kv.OpInsert},
		{Key: "a", Value: "v2", Op: kv.OpDelete},
		{Key: "a", Value: "v3", Op: kv.OpInsert},
	}
	sp2, err := sp.applyDelta(ds, identity)
	if err != nil {
		t.Fatal(err)
	}
	var vals []string
	if err := sp2.readAll(func(p kv.Pair) error { vals = append(vals, p.Value); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []string{"v3"}) {
		t.Fatalf("chained delta = %v, want [v3]", vals)
	}
}

func TestApplyDeltaRejectsMissingDeletion(t *testing.T) {
	dir := t.TempDir()
	sp, err := buildStructPart(filepath.Join(dir, "p"), []kv.Pair{{Key: "a", Value: "v1"}}, identity)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.applyDelta([]kv.Delta{{Key: "a", Value: "wrong", Op: kv.OpDelete}}, identity); err == nil {
		t.Fatal("deletion with mismatched value succeeded")
	}
}

func TestAppendPairFrameMatchesCodec(t *testing.T) {
	// The span index relies on appendPairFrame producing exactly the
	// bytes kv.Writer writes; divergence would corrupt every selective
	// read.
	f := func(k, v string) bool {
		frame := appendPairFrame(nil, kv.Pair{Key: k, Value: v})
		var enc frameBuf
		w := kv.NewWriter(&enc)
		if err := w.WritePair(kv.Pair{Key: k, Value: v}); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		return string(frame) == string(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type frameBuf []byte

func (b *frameBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

func TestReplicateStatePartHasNoSpans(t *testing.T) {
	dir := t.TempDir()
	sp, err := buildStructPart(filepath.Join(dir, "p"), []kv.Pair{{Key: "b", Value: "2"}, {Key: "a", Value: "1"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sp.spans != nil {
		t.Fatal("nil-project part built a span index")
	}
	var keys []string
	if err := sp.readAll(func(p kv.Pair) error { keys = append(keys, p.Key); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Fatalf("records = %v (should be key-sorted)", keys)
	}
}
