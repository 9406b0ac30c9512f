package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests re-run this binary as hpnbench itself: with
// HPNBENCH_RUN_MAIN set, the process parses its arguments as hpnbench
// flags.
func TestMain(m *testing.M) {
	if os.Getenv("HPNBENCH_RUN_MAIN") == "1" {
		os.Args = append([]string{"hpnbench"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain re-runs the test binary as hpnbench with args and returns its
// combined output and exit status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate the test binary")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "HPNBENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("%v: %v", args, err)
	return "", 0
}

// TestBadFlagsExitTwo runs the command with each rejected flag value and
// expects exit status 2 with the given message, before any experiment
// runs.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-memo", "bogus"}, "-memo must be on or off"},
		{[]string{"-scale", "bogus"}, "unknown scale"},
		{[]string{"-exp", "nosuch"}, "valid: all, "},
		{[]string{"-tolerance", "-1"}, "-tolerance must be at least 0"},
		{[]string{"-compare", "old.json"}, "exactly two snapshot paths"},
	} {
		out, code := runMain(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2\n%s", tc.args, code, out)
			continue
		}
		if !strings.Contains(out, tc.msg) || strings.Contains(out, "paper vs measured") {
			t.Errorf("%v: output lacks %q or ran an experiment:\n%s", tc.args, tc.msg, out)
		}
	}
}

// TestCPUProfileFlushedOnFailure rejects an unknown experiment with
// -cpuprofile set and expects a complete CPU profile: the failure path
// must stop the profile, not leave an empty file.
func TestCPUProfileFlushedOnFailure(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	out, code := runMain(t, "-exp", "nosuch", "-cpuprofile", prof)
	if code == 0 {
		t.Fatalf("unknown experiment accepted:\n%s", out)
	}
	buf, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte{0x1f, 0x8b}) {
		t.Fatalf("CPU profile is %d bytes without the gzip magic; the failure path did not stop it", len(buf))
	}
}
