// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the real serving stack (client → server → engine →
// shard → core) over loopback, checks every answer against a brute-force
// oracle, and prints the end-to-end metrics; with -trace 1 it instead
// walks held-out queries down a ladder of direct calls into each layer
// and prints the per-layer metrics. See README.md for the workloads and
// what each one predicts.
//
// Usage (from the repository root; run.sh builds and execs this):
//
//	perfbench --workload knn-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any operation failed or any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same data and queries")
	flag.IntVar(&o.seconds, "seconds", 10, "run length; sets each workload's fixed operation count")
	trace := flag.Int("trace", 0, "1 = traced layer-ladder run printing the per-layer metrics")
	flag.Parse()
	o.trace = *trace == 1
	o.scale = 1
	o.out = os.Stdout

	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid())))
	if err != nil {
		fail(err)
	}
	o.workDir = work
	if o.trace {
		o.spanFile = filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	}
	res, err := run(o)
	os.RemoveAll(work)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
