package exp

import (
	"reflect"
	"testing"

	"sara/internal/config"
)

// TestParallelMatchesSerial asserts the acceptance property of the
// parallel harness: fanning the (case, policy, frequency) runs across
// workers yields results identical to serial execution with the same
// seed — every run owns its own kernel, forked RNG streams and trace
// probes, so analyzed runs fan out too and their reports match.
func TestParallelMatchesSerial(t *testing.T) {
	serial := FastOptions()
	serial.Workers = 1
	parallel := FastOptions()
	parallel.Workers = 0 // GOMAXPROCS

	t.Run("fig5", func(t *testing.T) {
		s, p := Fig5(serial), Fig5(parallel)
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig5 parallel results differ from serial")
		}
	})
	t.Run("fig8", func(t *testing.T) {
		s, p := Fig8(serial), Fig8(parallel)
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig8 parallel results differ from serial")
		}
	})
	t.Run("fig7", func(t *testing.T) {
		s, p := Fig7(serial), Fig7(parallel)
		if !reflect.DeepEqual(s, p) {
			t.Fatal("Fig7 parallel results differ from serial")
		}
	})
	t.Run("analyzed", func(t *testing.T) {
		var cells []Cell
		for _, tc := range []config.Case{config.CaseA, config.CaseB} {
			for _, p := range Fig5Policies() {
				cells = append(cells, Cell{Case: tc, Policy: p})
			}
		}
		so, po := serial, parallel
		so.Analyze, po.Analyze = true, true
		s, err := RunCells(cells, so)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunCells(cells, po)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range s {
			if r.Analysis == nil || r.Analysis.Samples == 0 || !r.Analysis.Edges {
				t.Fatalf("cell %v/%v: want a sampled edge-layer report", r.Case, r.Policy)
			}
		}
		if !reflect.DeepEqual(s, p) {
			t.Fatal("analyzed parallel results differ from serial")
		}
	})
}
