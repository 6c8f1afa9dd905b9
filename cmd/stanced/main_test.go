package main

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when STANCED_MAIN is set, so a test
// can start the test binary as the daemon and check its exit status and
// output.
func TestMain(m *testing.M) {
	if os.Getenv("STANCED_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runStanced runs the daemon with args and returns its exit status and
// stderr. A daemon that starts serving instead of exiting is killed
// after a few seconds and reports status -1.
func runStanced(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-pool", "2"}, args...)...)
	cmd.Env = append(os.Environ(), "STANCED_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("run stanced: %v", err)
	return 0, ""
}

// TestBadInputsExitOne: a negative network model or tuning value is an
// error with exit status 1, not a pool that runs on defaults.
func TestBadInputsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-latency", "-1ms"},
		{"-bandwidth", "-5"},
		{"-delay", "-1ms"},
		{"-transport", "tcp", "-batch", "-5"},
		{"-transport", "tcp", "-hb-miss", "-2"},
		{"-transport", "tcp", "-flush", "-1ms"},
		{"-transport", "tcp", "-compress", "bogus"},
		{"-transport", "tcp", "-hb", "1ms", "-flush", "2ms"},
		{"-addr", "bogus:::"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			code, out := runStanced(t, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
			if code != 1 {
				t.Fatalf("exit status %d, want 1; stderr:\n%s", code, out)
			}
			if !strings.HasPrefix(out, "stanced: ") || strings.Contains(out, "panic:") || strings.Contains(out, "goroutine ") {
				t.Errorf("stderr is not an error line:\n%s", out)
			}
		})
	}
}

// TestAddressInUseExitsNonZero: a daemon that cannot listen must not
// log "bye" and exit 0 as if it had served.
func TestAddressInUseExitsNonZero(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	code, out := runStanced(t, "-addr", ln.Addr().String())
	if code <= 0 {
		t.Fatalf("exit status %d on a held port, want non-zero; stderr:\n%s", code, out)
	}
}
