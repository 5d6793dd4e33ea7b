package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"ppsim/internal/cell"
	"ppsim/internal/harness"
	"ppsim/internal/metrics"
)

// digestInput is what a run's output digest covers: the full Report, the
// slot count, and the two conservation identities of admission accounting.
type digestInput struct {
	Report metrics.Report
	Slots  cell.Time
	// OfferedConserved is Offered == Admitted + Rejected + ExpiredAdmit.
	OfferedConserved bool
	// AdmittedConserved is Admitted == Cells + Drops + ExpiredReseq.
	AdmittedConserved bool
}

// conserved reports whether both conservation identities hold.
func conserved(rep metrics.Report) (offered, admitted bool) {
	offered = rep.Offered == rep.Admitted+rep.Rejected+rep.ExpiredAdmit
	admitted = rep.Admitted == rep.Cells+rep.Drops+rep.ExpiredReseq
	return offered, admitted
}

// digest returns the hex SHA-256 of the run's canonical JSON encoding.
func digest(res harness.Result) (string, error) {
	in := digestInput{Report: res.Report, Slots: res.Slots}
	in.OfferedConserved, in.AdmittedConserved = conserved(res.Report)
	b, err := json.Marshal(in)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// digestFile is the committed table of referee digests (digests.json).
type digestFile struct {
	Referee   string                    `json:"referee"`
	Workloads map[string]workloadDigest `json:"workloads"`
}

type workloadDigest struct {
	DefaultSeed int64 `json:"default_seed"`
	HeldoutSeed int64 `json:"heldout_seed"`
	// Engine is the referee core that produced the digests.
	Engine  string            `json:"engine"`
	Digests map[string]string `json:"digests"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (digestFile, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return f, fmt.Errorf("digests.json: %w", err)
	}
	return f, nil
}

// knownDigest returns the committed digest for (workload, seed), if any.
func knownDigest(w workload, seed int64) (string, bool, error) {
	f, err := loadDigests()
	if err != nil {
		return "", false, err
	}
	d, ok := f.Workloads[w.name].Digests[strconv.FormatInt(seed, 10)]
	return d, ok, nil
}

// refereeDigest runs w on the referee core — the stepped core, with
// quiescence elision for sparse-long, whose plain stepped run costs O(N) on
// every one of its 2M slots — and returns its digest and engine.
func refereeDigest(w workload, seed int64) (string, string, error) {
	opts, err := w.options(harness.EngineStepped)
	if err != nil {
		return "", "", err
	}
	opts.FastForward = w.name == "sparse-long"
	src, pps, err := w.setup(seed, nil, nil)
	if err != nil {
		return "", "", err
	}
	res, err := harness.Drive(pps, src, opts)
	if err != nil {
		return "", "", fmt.Errorf("referee: %w", err)
	}
	d, err := digest(res)
	return d, res.Engine, err
}

// generateDigests computes the referee digest table for every workload over
// its default seed, its held-out seed and the extra seeds given.
func generateDigests(extra []int64, logf func(string, ...any)) (digestFile, error) {
	f := digestFile{
		Referee:   "stepped core (sparse-long: stepped core with quiescence fast-forward)",
		Workloads: map[string]workloadDigest{},
	}
	for _, w := range workloads {
		seeds := append([]int64{w.defaultSeed, w.heldoutSeed}, extra...)
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		wd := workloadDigest{DefaultSeed: w.defaultSeed, HeldoutSeed: w.heldoutSeed, Digests: map[string]string{}}
		for _, s := range seeds {
			key := strconv.FormatInt(s, 10)
			if _, done := wd.Digests[key]; done {
				continue
			}
			d, eng, err := refereeDigest(w, s)
			if err != nil {
				return f, fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			wd.Engine = eng
			wd.Digests[key] = d
			logf("%s seed %d: %s (%s)", w.name, s, d, eng)
		}
		f.Workloads[w.name] = wd
	}
	return f, nil
}
