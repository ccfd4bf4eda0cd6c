package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the workload o.repeat times, each in a fresh process
// (as the driver does) with seeds seed, seed+1, ..., and prints every
// metric's median, min, max, range/median and the quartile spread the
// driver computes. For an end-to-end metric it fails when range/median
// exceeds the metric's declared bound.
func repeatRuns(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	samples := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < o.repeat; i++ {
		args := []string{
			"-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(o.trace),
			"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
			"-work", o.workRoot,
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run %d: last line is not a result: %w", i+1, err)
		}
		for name, m := range res.Metrics {
			samples[name] = append(samples[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "run %d/%d done\n", i+1, o.repeat)
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	bounds := make(map[string]float64)
	for _, d := range endToEndMetrics {
		bounds[d.Name] = d.Bound
	}
	fmt.Printf("%s, %d runs of %g s, seeds %d..%d\n\n", o.workload, o.repeat, o.seconds, o.seed, o.seed+int64(o.repeat)-1)
	fmt.Printf("| %-36s | %-8s | %12s | %12s | %12s | %9s | %9s | %5s |\n", "metric", "unit", "median", "min", "max", "range/med", "iqr/med", "bound")
	fmt.Printf("|%s|%s|%s|%s|%s|%s|%s|%s|\n", strings.Repeat("-", 38), strings.Repeat("-", 10), strings.Repeat("-", 14),
		strings.Repeat("-", 14), strings.Repeat("-", 14), strings.Repeat("-", 11), strings.Repeat("-", 11), strings.Repeat("-", 7))
	var over []string
	for _, name := range names {
		vs := append([]float64(nil), samples[name]...)
		sort.Float64s(vs)
		med := medianF(vs)
		rng, iqr := 0.0, 0.0
		if med != 0 {
			rng = (vs[len(vs)-1] - vs[0]) / med
			if len(vs) >= 2 {
				q1, q3 := quartiles(vs)
				iqr = (q3 - q1) / med
			}
		}
		bound := ""
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
			if rng > b {
				over = append(over, name)
			}
		}
		fmt.Printf("| %-36s | %-8s | %12.4f | %12.4f | %12.4f | %9.4f | %9.4f | %5s |\n",
			name, units[name], med, vs[0], vs[len(vs)-1], rng, iqr, bound)
	}
	if len(over) > 0 {
		return fmt.Errorf("range/median exceeds the declared bound for %s", strings.Join(over, ", "))
	}
	return nil
}

// quartiles returns the first and third quartile of sorted vs by the
// exclusive method, which is what Python's statistics.quantiles(vs, n=4)
// computes and the driver uses.
func quartiles(vs []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(vs)+1)
		lo := int(pos)
		if lo < 1 {
			return vs[0]
		}
		if lo >= len(vs) {
			return vs[len(vs)-1]
		}
		frac := pos - float64(lo)
		return vs[lo-1] + frac*(vs[lo]-vs[lo-1])
	}
	return at(0.25), at(0.75)
}
