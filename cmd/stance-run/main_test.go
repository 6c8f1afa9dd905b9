package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when STANCE_RUN_MAIN is set, so a
// test can start the test binary as the command and check its exit
// status and output.
func TestMain(m *testing.M) {
	if os.Getenv("STANCE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadInputsExitOne: every malformed flag ends the command with a
// one-line error and exit status 1 — no panic, no run on defaults.
func TestBadInputsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-p", "-1"},
		{"-p", "0"},
		{"-groups", "-1"},
		{"-ckpt", "-1s"},
		{"-tcp", "-batch", "-5"},
		{"-tcp", "-hb-miss", "-2"},
		{"-tcp", "-flush", "-1ms"},
		{"-tcp", "-compress", "bogus"},
		{"-tcp", "-hb", "1ms", "-flush", "2ms"},
		{"-mesh", "grid:0x0"},
		{"-load", "9:2"},
		{"-load", "0:Inf"},
		{"-load", "0:NaN"},
		{"-ewma", "-0.5", "-lb"},
		{"-work", "-5"},
		{"-check-every", "-3"},
		{"-virtual", "-tcp"},
		{"-transport", "hybrid"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			// A small valid run underneath, so a flag that is not
			// rejected finishes quickly with status 0 and fails the case.
			base := []string{"-p", "2", "-iters", "2", "-work", "1", "-netscale", "0.01", "-mesh", "grid:6x6"}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append(base, args...)...)
			cmd.Env = append(os.Environ(), "STANCE_RUN_MAIN=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit %v, want status 1; stderr:\n%s", err, stderr.String())
			}
			out := stderr.String()
			if !strings.HasPrefix(out, "stance-run: ") || strings.Contains(out, "panic:") || strings.Contains(out, "goroutine ") {
				t.Errorf("stderr is not one error line:\n%s", out)
			}
			if strings.Contains(stdout.String(), "mesh:") {
				t.Errorf("rejected after the run began; stdout:\n%s", stdout.String())
			}
		})
	}
}
