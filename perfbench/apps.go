package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/apps/dct"
	"repro/internal/apps/gauss"
	"repro/internal/apps/knight"
	"repro/internal/apps/othello"
)

// suite holds one run's application inputs, all generated from the seed.
type suite struct {
	gauss   gauss.Params
	dct     dct.Params
	othello othello.Params
	knight  knight.Params
}

// newSuite derives the inputs from seed. The seed changes the data, never
// the amount of work, so runs with different seeds stay comparable: the
// Gauss system and the DCT image are regenerated from it. The Othello and
// knight's-tour inputs are fixed, because their search trees — and, on six
// simulated PEs, the balance of their job pools — depend strongly on the
// position. DCT uses the paper's communication-bound 4x4 blocks; the
// knight's tour is split into at least 128 jobs so six PEs stay balanced.
func newSuite(seed uint64, tiny bool) suite {
	s := suite{
		gauss:   gauss.Params{N: 300, Seed: seed},
		dct:     dct.Params{ImageN: 128, Block: 4, Rate: 0.5, Seed: seed},
		othello: othello.Params{Depth: 5},
		knight:  knight.Params{BoardN: 5, Jobs: 128},
	}
	if tiny {
		s.gauss.N = 40
		s.dct.ImageN = 16
		s.othello.Depth = 2
		s.knight = knight.Params{BoardN: 4, Jobs: 8}
	}
	return s
}

// references are the sequential answers every parallel solve is checked
// against, each timed once.
type references struct {
	gaussX      map[int][]float64 // per PE count: the block-hybrid iterate
	gaussSweeps map[int]int
	dct         []int16
	othello     *othello.Result
	knight      *knight.Result
	seqS        map[string]float64
}

func buildReferences(s suite) (*references, error) {
	ref := &references{
		gaussX:      make(map[int][]float64),
		gaussSweeps: make(map[int]int),
		seqS:        make(map[string]float64),
	}
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		ref.seqS[name] = time.Since(t0).Seconds()
		return err
	}
	if err := timed("gauss", func() error {
		if r := gauss.Sequential(s.gauss); r.Residual > 1e-6 {
			return fmt.Errorf("gauss reference: residual %g", r.Residual)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := timed("dct", func() error {
		r, err := dct.Sequential(s.dct)
		if err == nil {
			ref.dct = r.Coeffs
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("othello", func() (err error) {
		ref.othello, err = othello.Sequential(s.othello)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed("knight", func() (err error) {
		ref.knight, err = knight.Sequential(s.knight)
		return err
	}); err != nil {
		return nil, err
	}
	return ref, nil
}

// blockHybrid replays gauss.Parallel's numerics on one processor for npe
// PEs: every sweep each PE's contiguous row block is updated Gauss-Seidel
// style against the previous sweep's vector, and the sweep's max update is
// tested against the tolerance. It yields the exact iterate and sweep count
// a correct parallel solve must produce, which differ from the plain
// sequential solver's because rows of other PEs lag by one sweep.
func (r *references) blockHybrid(p gauss.Params, npe int) ([]float64, int) {
	if x, ok := r.gaussX[npe]; ok {
		return x, r.gaussSweeps[npe]
	}
	a, b := gauss.BuildSystem(p)
	n := p.N
	x := make([]float64, n)
	sweeps := 0
	for sweep := 0; sweep < 200; sweep++ {
		prev := append([]float64(nil), x...)
		delta := 0.0
		for id := 0; id < npe; id++ {
			lo, hi := rowRange(n, npe, id)
			local := append([]float64(nil), prev...)
			for i := lo; i < hi; i++ {
				s := b[i]
				for j, v := range a[i] {
					if j != i {
						s -= v * local[j]
					}
				}
				local[i] = s / a[i][i]
				delta = math.Max(delta, math.Abs(local[i]-prev[i]))
			}
			copy(x[lo:hi], local[lo:hi])
		}
		sweeps++
		if delta < 1e-8 {
			break
		}
	}
	r.gaussX[npe], r.gaussSweeps[npe] = x, sweeps
	return x, sweeps
}

// rowRange mirrors gauss.Parallel's contiguous row partition.
func rowRange(n, npe, id int) (lo, hi int) {
	per, rem := n/npe, n%npe
	lo = id*per + min(id, rem)
	hi = lo + per
	if id < rem {
		hi++
	}
	return lo, hi
}

// appRun is one checked application solve.
type appRun struct {
	*runOut
	spanNS []float64 // per PE: time inside the app's Parallel call
}

// solve runs one application on a fresh cluster and checks its answer
// against the references. forge corrupts the answer before the check, so
// tests can prove a wrong answer fails the benchmark.
func solve(c clusterSpec, app string, s suite, ref *references, forge bool) (*appRun, error) {
	results := make([]any, c.npe)
	spans := make([]float64, c.npe)
	out, err := c.run(func(p benchProc) error {
		clock := clockOf(p, c.virtual())
		t0 := clock()
		var r any
		var err error
		switch app {
		case "gauss":
			r, err = gauss.Parallel(p, s.gauss)
		case "dct":
			r, err = dct.Parallel(p, s.dct)
		case "othello":
			r, err = othello.Parallel(p, s.othello)
		case "knight":
			r, err = knight.Parallel(p, s.knight)
		default:
			err = fmt.Errorf("unknown app %q", app)
		}
		spans[p.ID()] = float64(clock() - t0)
		results[p.ID()] = r
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", app, c.kind, err)
	}
	if forge {
		forgeAnswer(results[0])
	}
	for id, r := range results {
		if err := ref.check(s, c.npe, id, r); err != nil {
			return nil, fmt.Errorf("%s on %s: wrong answer: %w", app, c.kind, err)
		}
	}
	return &appRun{runOut: out, spanNS: spans}, nil
}

// forgeAnswer perturbs a result the way a broken runtime might.
func forgeAnswer(r any) {
	switch r := r.(type) {
	case *gauss.Result:
		r.X[0] += 1e-3
	case *dct.Result:
		r.Coeffs[0]++
	case *othello.Result:
		r.Value++
	case *knight.Result:
		r.Tours++
	}
}

// check compares PE id's result with the references.
func (ref *references) check(s suite, npe, id int, r any) error {
	switch r := r.(type) {
	case *gauss.Result:
		x, sweeps := ref.blockHybrid(s.gauss, npe)
		if r.Residual > 1e-6 {
			return fmt.Errorf("gauss PE %d: residual %g > 1e-6", id, r.Residual)
		}
		if r.Sweeps != sweeps {
			return fmt.Errorf("gauss PE %d: %d sweeps, reference %d", id, r.Sweeps, sweeps)
		}
		for i := range x {
			if r.X[i] != x[i] {
				return fmt.Errorf("gauss PE %d: x[%d] = %v, reference %v", id, i, r.X[i], x[i])
			}
		}
	case *dct.Result:
		if id != 0 {
			return nil // only PE 0 gathers the coefficient plane
		}
		if len(r.Coeffs) != len(ref.dct) {
			return fmt.Errorf("dct: %d coefficients, reference %d", len(r.Coeffs), len(ref.dct))
		}
		for i := range ref.dct {
			if r.Coeffs[i] != ref.dct[i] {
				return fmt.Errorf("dct: coefficient %d = %d, reference %d", i, r.Coeffs[i], ref.dct[i])
			}
		}
	case *othello.Result:
		want := ref.othello
		if r.BestMove != want.BestMove || r.Value != want.Value || r.Nodes != want.Nodes {
			return fmt.Errorf("othello PE %d: move %d value %d nodes %d, reference %d/%d/%d",
				id, r.BestMove, r.Value, r.Nodes, want.BestMove, want.Value, want.Nodes)
		}
	case *knight.Result:
		want := ref.knight
		if r.Tours != want.Tours || r.Nodes != want.Nodes {
			return fmt.Errorf("knight PE %d: %d tours %d nodes, reference %d/%d",
				id, r.Tours, r.Nodes, want.Tours, want.Nodes)
		}
	default:
		return fmt.Errorf("PE %d returned no result", id)
	}
	return nil
}
