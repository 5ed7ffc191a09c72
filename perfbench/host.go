package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// runContext records what a result was measured on and what it measured.
// Results are comparable only when every host field agrees.
type runContext struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`

	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`

	// Commit is the VCS revision the binary was built from, or
	// "unknown" outside a git checkout; Source hashes the Go sources
	// under the working directory either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func hostContext(workload string, seed uint64, trace int) runContext {
	return runContext{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

// sameHost reports the first host field on which two contexts differ.
func sameHost(a, b runContext) error {
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"cpu", a.CPU, b.CPU},
		{"nproc", a.NProc, b.NProc},
		{"gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS},
		{"go", a.Go, b.Go},
	} {
		if f.a != f.b {
			return fmt.Errorf("results come from different hosts (%s %v vs %v)", f.name, f.a, f.b)
		}
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every .go file and go.mod under root, skipping
// hidden directories such as the build cache.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// saved is one run's output as perfbench printed it.
type saved struct {
	ctx    runContext
	digest string
	report report
}

func parseSaved(r io.Reader) (saved, error) {
	var s saved
	var last string
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) != "" {
			last = line
		}
		if rest, ok := strings.CutPrefix(line, "context: "); ok {
			if err := json.Unmarshal([]byte(rest), &s.ctx); err != nil {
				return s, fmt.Errorf("context line: %w", err)
			}
		}
		if rest, ok := strings.CutPrefix(line, "digest: "); ok {
			s.digest = rest
		}
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	if s.ctx.Workload == "" {
		return s, errors.New("no context line")
	}
	if err := json.Unmarshal([]byte(last), &s.report); err != nil {
		return s, fmt.Errorf("result line: %w", err)
	}
	return s, nil
}

// compare prints each metric of two saved runs of the same workload on
// the same host, after/before, and whether their results are
// bit-identical. Runs from different hosts are refused.
func compare(before, after io.Reader, w io.Writer) error {
	a, err := parseSaved(before)
	if err != nil {
		return fmt.Errorf("before: %w", err)
	}
	b, err := parseSaved(after)
	if err != nil {
		return fmt.Errorf("after: %w", err)
	}
	if err := sameHost(a.ctx, b.ctx); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	if a.ctx.Workload != b.ctx.Workload || a.ctx.Seed != b.ctx.Seed || a.ctx.Trace != b.ctx.Trace {
		return fmt.Errorf("refusing to compare: different runs (%s seed %d trace %d vs %s seed %d trace %d)",
			a.ctx.Workload, a.ctx.Seed, a.ctx.Trace, b.ctx.Workload, b.ctx.Seed, b.ctx.Trace)
	}
	same := "bit-identical results"
	if a.digest != b.digest {
		same = "DIFFERENT results"
	}
	fmt.Fprintf(w, "%s seed %d: %s (digest %s vs %s)\n", a.ctx.Workload, a.ctx.Seed, same, a.digest, b.digest)
	names := make([]string, 0, len(a.report.Metrics))
	for n := range a.report.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.report.Metrics[n], b.report.Metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %14.6g %-10s after/before %.4f\n", n, ma.Value, mb.Value, ma.Unit, ratio(mb.Value, ma.Value))
	}
	return nil
}

func compareFiles(before, after string, w io.Writer) error {
	fa, err := os.Open(before)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(after)
	if err != nil {
		return err
	}
	defer fb.Close()
	return compare(fa, fb, w)
}
