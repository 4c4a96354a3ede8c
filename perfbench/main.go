// Command perfbench is the repository benchmark. It starts a real serving
// stack in-process on loopback TCP, drives one seeded open-loop workload at
// it, checks every answer, and prints the client-seen metrics as one JSON
// line on stdout (a readable report goes to stderr).
//
//	go run . --workload query-repeat --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it instead reports per-layer numbers: counters from an
// untraced run, handler times from a replay through the server's
// http.Handler, and span self times from a replay that calls each layer's
// public functions in the order the handler does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: query-repeat, query-evolving or predict-nas")
	seed := flag.Int64("seed", 1, "seed for the workload's graphs and arrivals")
	seconds := flag.Int("seconds", 10, "length of the timed open-loop window")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) (*result, error) {
	sp, err := specByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	in, err := makeInputs(sp, seed, float64(seconds), nproc)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	// Temporary files stay inside the working directory, the checkout root.
	tmpRoot := filepath.Join(".bench_build", "perfbench-tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	rep := &report{in: in, seed: seed, nproc: nproc, seconds: float64(seconds)}
	rep.header()
	if traced {
		return runTraced(rep, tmpRoot)
	}
	return runEndToEnd(rep, tmpRoot)
}

// setupRepeats is how many times an end-to-end run sets the stack up; it
// reports the median and serves from the last one.
const setupRepeats = 5

func runEndToEnd(rep *report, tmpRoot string) (*result, error) {
	in, nproc := rep.in, rep.nproc
	var setups []float64
	var st *stack
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			st.close()
		}
		// Each set-up starts from a collected heap, so it does not pay for
		// collecting the one before it.
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = setUp(in, nproc, tmpRoot, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	rep.setups = setups

	e, err := drive(rep, st)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"p50_ms":         {e.p50ms, "ms"},
		"goodput_rps":    {e.goodput, "1/s"},
		"cpu_ms_per_req": {e.cpuMS, "ms"},
		"heap_live_mb":   {e.heapMB, "MB"},
	}
	rep.endToEnd(e, m)
	return &result{Correct: e.correct(), Attempted: e.attempted, Failed: e.failed, Metrics: m}, nil
}
