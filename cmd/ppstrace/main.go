// Command ppstrace generates, inspects and validates cell-arrival traces.
//
// Traces are stored as JSON: a list of {t, in, out} arrival records. The
// adversarial constructions can be materialized to files here and replayed
// with ppssim-style tooling or external analysis.
//
// Examples:
//
//	ppstrace -gen steering -n 32 -k 4 -rprime 2 -o /tmp/steer.json
//	ppstrace -stats /tmp/steer.json -n 32
//	ppstrace -run /tmp/steer.json -n 32 -k 4 -rprime 2 -alg rr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ppsim"
)

func main() {
	var (
		gen    = flag.String("gen", "", "generate: steering, concentration, herding, bernoulli")
		n      = flag.Int("n", 16, "ports")
		k      = flag.Int("k", 4, "planes (steering)")
		rprime = flag.Int64("rprime", 2, "r' (steering)")
		alg    = flag.String("alg", "rr", "algorithm under attack (steering)")
		seed   = flag.Int64("seed", 1, "seed")
		slots  = flag.Int64("slots", 1000, "horizon (bernoulli)")
		load   = flag.Float64("load", 0.6, "load (bernoulli)")
		out    = flag.String("o", "", "output file (default stdout)")
		stats  = flag.String("stats", "", "read a trace file and print statistics")
		replay = flag.String("run", "", "replay a trace file through a switch and print the report")
	)
	flag.Parse()
	if err := validateLoad(*load); err != nil {
		fmt.Fprintln(os.Stderr, "ppstrace:", err)
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *replay != "":
		if err := runTrace(*replay, *n, *k, *rprime, *alg); err != nil {
			fmt.Fprintln(os.Stderr, "ppstrace:", err)
			os.Exit(1)
		}
	case *stats != "":
		if err := printStats(*stats, *n); err != nil {
			fmt.Fprintln(os.Stderr, "ppstrace:", err)
			os.Exit(1)
		}
	case *gen != "":
		tr, err := generate(*gen, *n, *k, *rprime, *alg, *seed, ppsim.Time(*slots), *load)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ppstrace:", err)
			os.Exit(1)
		}
		if err := writeTrace(tr, *out); err != nil {
			fmt.Fprintln(os.Stderr, "ppstrace:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// validateLoad rejects a -load outside [0,1] (or NaN) at parse time, before
// it reaches traffic.NewBernoulli's panic.
func validateLoad(load float64) error {
	if !(load >= 0 && load <= 1) {
		return fmt.Errorf("-load must be in [0,1], got %v", load)
	}
	return nil
}

func generate(kind string, n, k int, rprime int64, alg string, seed int64, slots ppsim.Time, load float64) (*ppsim.Trace, error) {
	switch kind {
	case "steering":
		cfg := ppsim.Config{N: n, K: k, RPrime: rprime, Algorithm: ppsim.Algorithm{Name: alg, D: 2, U: 2, H: 2}}
		return ppsim.SteeringTrace(cfg, ppsim.AllInputs(n), 0, 1, 16, seed)
	case "concentration":
		return ppsim.ConcentrationTrace(n, n, 0)
	case "herding":
		return ppsim.HerdingTrace(n, 0, 4, n/4, 4)
	case "bernoulli":
		src := ppsim.NewBernoulli(n, load, slots, seed)
		tr := ppsim.NewTrace()
		var buf []ppsim.Arrival
		for t := ppsim.Time(0); t < slots; t++ {
			buf = src.Arrivals(t, buf[:0])
			for _, a := range buf {
				if err := tr.Add(t, a.In, a.Out); err != nil {
					return nil, err
				}
			}
		}
		return tr, nil
	default:
		return nil, fmt.Errorf("unknown generator %q", kind)
	}
}

func writeTrace(tr *ppsim.Trace, path string) error {
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	// Trace implements json.Marshaler with a canonical record encoding.
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

func printStats(path string, n int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr := ppsim.NewTrace()
	if err := json.NewDecoder(f).Decode(tr); err != nil {
		return err
	}
	b, err := ppsim.MeasureBurstiness(n, tr)
	if err != nil {
		return err
	}
	fmt.Printf("cells: %d\n", tr.Count())
	fmt.Printf("span:  %d slots\n", tr.End())
	fmt.Printf("leaky-bucket burstiness B: %d\n", b)
	for _, tau := range []ppsim.Time{1, 10, 100} {
		if tau >= tr.End() {
			break
		}
		x, err := ppsim.WindowBurstiness(n, tr, tau)
		if err != nil {
			return err
		}
		fmt.Printf("window excess (tau=%d): %d\n", tau, x)
	}
	return nil
}

// runTrace replays a stored trace through a configured switch.
func runTrace(path string, n, k int, rprime int64, alg string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr := ppsim.NewTrace()
	if err := json.NewDecoder(f).Decode(tr); err != nil {
		return err
	}
	cfg := ppsim.Config{
		N: n, K: k, RPrime: rprime,
		Algorithm: ppsim.Algorithm{Name: alg, D: 2, U: 2, H: 2},
	}
	res, err := ppsim.Run(cfg, tr, ppsim.Options{Validate: true})
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d cells through N=%d K=%d r'=%d %s\n",
		res.Report.Cells, n, k, rprime, res.AlgorithmName)
	fmt.Println(res.Report)
	return nil
}
