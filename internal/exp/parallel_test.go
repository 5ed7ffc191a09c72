package exp

import (
	"reflect"
	"testing"
)

// TestParallelMatchesSerial asserts the acceptance property of the
// parallel harness: fanning the (case, policy, frequency) runs across
// workers yields results identical to serial execution with the same
// seed — every run owns its own kernel and forked RNG streams.
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
}
