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

// TestMain lets the tests re-run this binary as hpnsim itself: with
// HPNSIM_RUN_MAIN set, the process parses its arguments as hpnsim flags.
func TestMain(m *testing.M) {
	if os.Getenv("HPNSIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"hpnsim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCheckShape(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		hosts, tp, pp, iters, pods int
		wantErr                    string
	}{
		{"defaults", 16, 8, 1, 5, 1, ""},
		{"multi-pod", 4, 8, 1, 2, 2, ""},
		{"zero hosts", 0, 8, 1, 5, 1, "-hosts must be at least 1"},
		{"zero tp", 16, 0, 1, 5, 1, "-tp must be at least 1"},
		{"zero pp", 16, 8, 0, 5, 1, "-pp must be at least 1"},
		{"zero iters", 16, 8, 1, 0, 1, "-iters must be at least 1"},
		{"negative iters", 16, 8, 1, -1, 1, "-iters must be at least 1, got -1"},
		{"zero pods", 16, 8, 1, 5, 0, "-pods must be at least 1"},
		{"multi-pod zero hosts", 0, 8, 1, 5, 2, "-hosts must be at least 1"},
		{"indivisible", 3, 8, 2, 5, 1, "24 GPUs not divisible by tp*pp=16"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkShape(tc.hosts, tc.tp, tc.pp, tc.iters, tc.pods)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestBadFlagsExitTwo runs the command with each rejected flag value and
// expects exit status 2 with a message, never a panic.
func TestBadFlagsExitTwo(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate the test binary")
	}
	for _, args := range [][]string{
		{"-hosts", "0"}, {"-tp", "0"}, {"-pp", "0"}, {"-iters", "0"}, {"-iters", "-1"},
		{"-pods", "0"}, {"-pods", "2", "-hosts", "0"},
	} {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), "HPNSIM_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "must be at least 1") || strings.Contains(string(out), "panic") {
			t.Errorf("%v: output lacks the rejection message or panicked:\n%s", args, out)
		}
	}
}

// TestCPUProfileFlushedOnFailure runs a job whose trace cannot be written
// and expects exit status 1 with a complete CPU profile: the failure path
// must stop the profile, not leave an empty file.
func TestCPUProfileFlushedOnFailure(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate the test binary")
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.prof")
	cmd := exec.Command(exe, "-hosts", "4", "-iters", "1", "-cpuprofile", prof,
		"-trace", filepath.Join(dir, "missing", "trace.json"))
	cmd.Env = append(os.Environ(), "HPNSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit status 1\n%s", err, out)
	}
	buf, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte{0x1f, 0x8b}) {
		t.Fatalf("CPU profile is %d bytes without the gzip magic; the failure path did not stop it", len(buf))
	}
}
