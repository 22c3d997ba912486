package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady runs one workload repeatedly, each run a fresh process with its
// own seed, and prints every metric's median, quartiles, quartile spread
// (as a share of the median) and max/min ratio. The bounds in
// BENCHMARK.json are set from this output.
func steady(dir string, args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	workload := fs.String("workload", "discover", "workload to repeat")
	runs := fs.Int("runs", 10, "number of runs")
	seconds := fs.Int("seconds", 10, "--seconds of each run")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	trace := fs.Int("trace", 0, "--trace of each run")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "catbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(exe, "--dir", dir, "--workload", *workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "catbench steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		if i == 0 && len(lines) > 1 {
			fmt.Println(string(lines[0]))
		}
		var res outcome
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(os.Stderr, "catbench steady: run with seed %d: %v\n", seed, err)
			return 1
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, res.Correct, res.Attempted, res.Failed)
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %-6s %12s %12s %12s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "max/min")
	for _, k := range names {
		v := values[k]
		med := median(v)
		q1, q3 := med, med
		if len(v) >= 2 {
			q1, _, q3 = quartiles(v)
		}
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		spread, ratio := 0.0, 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		if lo != 0 {
			ratio = hi / lo
		}
		fmt.Printf("%-30s %-6s %12.4f %12.4f %12.4f %8.3f %8.3f\n", k, units[k], med, q1, q3, spread, ratio)
	}
	return 0
}
