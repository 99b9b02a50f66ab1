package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"i2mapreduce/internal/cluster"
	"i2mapreduce/internal/datagen"
	"i2mapreduce/internal/dfs"
	"i2mapreduce/internal/kv"
	"i2mapreduce/internal/mr"
)

// BenchmarkIncrementalRefresh times one incremental PageRank refresh per
// op: a 3000-vertex graph of mean out-degree 4 over 4 partitions, CPC at
// filter 0.001, checkpointing every iteration, and one out-edge of 2.5%
// of the vertices retargeted before each op (untimed). It is the refresh
// path of the repository benchmark's pagerank-evolve workload without
// the recompute arm; `make pprof-refresh` profiles it.
func BenchmarkIncrementalRefresh(b *testing.B) {
	const (
		vertices = 3000
		rewire   = vertices / 40
	)
	root := b.TempDir()
	fs, err := dfs.New(dfs.Config{Root: filepath.Join(root, "dfs"), Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{Nodes: 4, ScratchRoot: filepath.Join(root, "scratch")})
	if err != nil {
		b.Fatal(err)
	}
	eng := mr.NewEngine(fs, cl)
	graph := datagen.Graph(1, vertices, 4)
	if err := fs.WriteAllPairs("graph-0", graph); err != nil {
		b.Fatal(err)
	}
	r, err := NewRunner(eng, pageRankSpec("pr-refresh"), Config{
		NumPartitions: 4, MaxIterations: 500,
		CPC: true, FilterThreshold: 0.001, Checkpoint: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunInitial("graph-0"); err != nil {
		b.Fatal(err)
	}

	// Each op takes the next rewire vertices of a fixed permutation, so
	// successive ops move different vertices.
	rng := rand.New(rand.NewSource(7))
	order := rng.Perm(vertices)
	rewrite := datagen.RewireGraphValue(vertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx := make([]int, rewire)
		for j := range idx {
			idx[j] = order[(i*rewire+j)%vertices]
		}
		slices.Sort(idx)
		var ds []kv.Delta
		for _, v := range idx {
			old := graph[v]
			nv := rewrite(rng, old.Key, old.Value)
			if nv == old.Value {
				continue
			}
			ds = append(ds, kv.Delta{Key: old.Key, Value: old.Value, Op: kv.OpDelete},
				kv.Delta{Key: old.Key, Value: nv, Op: kv.OpInsert})
			graph[v].Value = nv
		}
		path := fmt.Sprintf("delta-%d", i)
		if err := fs.WriteAllDeltas(path, ds); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := r.RunIncremental(path)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("op %d: refresh did not converge in %d iterations", i, res.Iterations)
		}
	}
}
