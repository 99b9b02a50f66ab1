package main

import (
	"fmt"
	"strconv"

	"i2mapreduce/internal/serve"
)

// checkValue compares one served WordCount group against the expected
// count; want == 0 means the key must be absent. It returns "" when the
// answer is right and a description of the mismatch otherwise.
func checkValue(v serve.HTTPValue, want int) string {
	if want == 0 {
		if v.Found {
			return fmt.Sprintf("%s: found %v, want absent", v.Key, v.Pairs)
		}
		return ""
	}
	if !v.Found {
		return fmt.Sprintf("%s: absent, want %d", v.Key, want)
	}
	if len(v.Pairs) != 1 || v.Pairs[0].Key != v.Key || v.Pairs[0].Value != strconv.Itoa(want) {
		return fmt.Sprintf("%s: got %v, want %d", v.Key, v.Pairs, want)
	}
	return ""
}

// countOf parses a served count; ok is false for an absent or malformed
// group.
func countOf(v serve.HTTPValue) (n int, ok bool) {
	if !v.Found || len(v.Pairs) != 1 || v.Pairs[0].Key != v.Key {
		return 0, false
	}
	n, err := strconv.Atoi(v.Pairs[0].Value)
	return n, err == nil
}

// selfTest plants wrong answers and checks that every oracle catches
// them, so a checker that silently accepts everything fails the run.
func selfTest() error {
	right := serve.HTTPValue{Key: "w1", Found: true, Pairs: []serve.HTTPPair{{Key: "w1", Value: "3"}}}
	if msg := checkValue(right, 3); msg != "" {
		return fmt.Errorf("a right answer was rejected: %s", msg)
	}
	planted := []struct {
		v    serve.HTTPValue
		want int
	}{
		{serve.HTTPValue{Key: "w1", Found: true, Pairs: []serve.HTTPPair{{Key: "w1", Value: "4"}}}, 3},
		{serve.HTTPValue{Key: "w1", Found: false}, 3},
		{serve.HTTPValue{Key: "w1", Found: true, Pairs: []serve.HTTPPair{{Key: "w2", Value: "3"}}}, 3},
		{serve.HTTPValue{Key: "absent", Found: true, Pairs: []serve.HTTPPair{{Key: "absent", Value: "1"}}}, 0},
	}
	for _, p := range planted {
		if checkValue(p.v, p.want) == "" {
			return fmt.Errorf("planted wrong answer %+v (want %d) was accepted", p.v, p.want)
		}
	}
	// At rank 400 the arms may differ by prAgreeRel*400 = 2.
	want := map[string]string{"v1": "1.5", "v2": "0.7", "hub": "400"}
	if bad, _, _ := compareStates(map[string]string{"v1": "1.5", "v2": "0.7", "hub": "401.5"}, want, prAgree, prAgreeRel); bad != 0 {
		return fmt.Errorf("PageRank states within the bound were rejected")
	}
	for _, got := range []map[string]string{
		{"v1": "1.5", "v2": "0.95", "hub": "400"},
		{"v1": "1.5", "hub": "400"},
		{"v1": "1.5", "v2": "0.7", "v3": "1", "hub": "400"},
		{"v1": "1.5", "v2": "0.7", "hub": "402.5"},
	} {
		if bad, _, _ := compareStates(got, want, prAgree, prAgreeRel); bad == 0 {
			return fmt.Errorf("planted wrong PageRank state %v was accepted", got)
		}
	}
	return nil
}
