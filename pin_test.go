package hpn

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readPins parses a committed pin file: one record per line, fields
// separated by whitespace, '#' lines and blank lines skipped.
func readPins(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, strings.Fields(line))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPinnedArtifactDigests pins the golden artifact sets across versions:
// the SHA-256 of every artifact of the instrumented golden run, of the
// memo-on run and of the sharded flap run must equal the digests committed
// in testdata/pins/artifacts.sha256. The TestGoldenDeterminism* gates
// compare two runs of one build; this one catches an "exact" change that
// shifts any byte of the outputs. On drift it prints the new digest line;
// a pin update must be justified in CHANGES.md.
func TestPinnedArtifactDigests(t *testing.T) {
	got := map[string][]byte{}
	for name, b := range goldenArtifacts(t) {
		got["golden/"+name] = b
	}
	memo, _ := memoArtifacts(t, true, 8)
	for name, b := range memo {
		got["memo/"+name] = b
	}
	sharded, _ := shardedArtifacts(t, 1, 4, false, true)
	for name, b := range sharded {
		got["sharded/"+name] = b
	}
	pins := readPins(t, filepath.Join("testdata", "pins", "artifacts.sha256"))
	if len(pins) == 0 {
		t.Fatal("no pins committed")
	}
	for _, p := range pins {
		want, name := p[0], p[1]
		b, ok := got[name]
		if !ok {
			t.Errorf("%s: pinned artifact not produced", name)
			continue
		}
		sum := sha256.Sum256(b)
		if h := hex.EncodeToString(sum[:]); h != want {
			t.Errorf("%s drifted from its pin:\n  want %s\n  got  %s  %s", name, want, h, name)
		}
	}
}

// TestPinnedPerfbenchDigests builds the repository benchmark and checks
// the simulated-result digest of every pinned (workload, seed) pair
// against testdata/pins/perfbench.txt. Each pair runs one repetition plus
// the profiled one (a few seconds). Skipped under -short.
func TestPinnedPerfbenchDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	build.Dir = "perfbench"
	build.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building perfbench: %v\n%s", err, out)
	}
	digestRE := regexp.MustCompile(`(?m)^digest ([0-9a-f]{16}) (.*)$`)
	for _, p := range readPins(t, filepath.Join("testdata", "pins", "perfbench.txt")) {
		workload, seed, want := p[0], p[1], p[2]
		run := exec.Command(bin, "--scratch", dir, "--workload", workload, "--seed", seed,
			"--seconds", "0.01", "--trace", "0")
		out, err := run.CombinedOutput()
		if err != nil {
			t.Errorf("%s seed %s: %v\n%s", workload, seed, err, out)
			continue
		}
		m := digestRE.FindSubmatch(out)
		if m == nil {
			t.Errorf("%s seed %s: no digest line in output:\n%s", workload, seed, out)
			continue
		}
		if got := string(m[1]); got != want {
			t.Errorf("%s seed %s drifted from its pin: want %s, got %s (%s)",
				workload, seed, want, got, m[2])
		}
	}
}
