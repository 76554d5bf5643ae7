package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns is the driver's acceptance check, run locally: each workload n
// times, each time with another seed and in a fresh process, then per
// end-to-end metric the median and the quartile distance as a share of it.
// With compare it does all that twice and fails if a spread exceeds the
// metric's bound or the second median is worse than the first by more than
// the bound.
func repeatRuns(selected []*spec, seed int64, seconds, scale float64, clients, n int, compare bool) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -repeat reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sets := 1
	if compare {
		sets = 2
	}
	breaches := 0
	for _, sp := range selected {
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				m, err := childRun(self, sp.name, seed+int64(i), seconds, scale, clients)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", sp.name, seed+int64(i), err)
					return 2
				}
				for name, v := range m {
					values[s][name] = append(values[s][name], v.Value)
				}
			}
		}
		fmt.Printf("\n== %s: %d runs per set, seeds %d..%d\n", sp.name, n, seed, seed+int64(n)-1)
		fmt.Printf("  %-28s %-6s %12s %8s", "metric", "unit", "median", "spread")
		if compare {
			fmt.Printf(" %12s %8s %9s", "median 2", "spread 2", "worse by")
		}
		fmt.Printf(" %6s\n", "bound")
		for _, e := range bf.EndToEnd {
			a := values[0][e.Name]
			fmt.Printf("  %-28s %-6s %12.4f %8.4f", e.Name, e.Unit, median(a), spread(a))
			verdict := ""
			// setup_s is exempt from the spread rule, as in the driver.
			if e.Name != "setup_s" && spread(a) > e.Bound {
				verdict = " SPREAD"
			}
			if compare {
				b := values[1][e.Name]
				worse := (median(b) - median(a)) / median(a)
				if e.Better == "higher" {
					worse = -worse
				}
				fmt.Printf(" %12.4f %8.4f %+9.4f", median(b), spread(b), worse)
				if e.Name != "setup_s" && spread(b) > e.Bound {
					verdict = " SPREAD"
				}
				if worse > e.Bound {
					verdict += " WORSE"
				}
			}
			fmt.Printf(" %6.2f%s\n", e.Bound, verdict)
			if verdict != "" {
				breaches++
			}
		}
	}
	if breaches > 0 {
		fmt.Printf("\n%d breach(es)\n", breaches)
		return 1
	}
	return 0
}

// childRun runs one timed run in a fresh process, as the driver does, and
// parses the result line.
func childRun(self, workload string, seed int64, seconds, scale float64, clients int) (map[string]metric, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-clients", strconv.Itoa(clients), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool              `json:"correct"`
		Failed  int               `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d failed ops", res.Failed)
	}
	return res.Metrics, nil
}
