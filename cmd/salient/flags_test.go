package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"salient/internal/bench"
)

// TestMain lets a test re-run the binary as the salient command itself:
// with SALIENT_RUN_MAIN set, the process runs main on its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SALIENT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// parse registers the CLI flag set and parses args, as main does.
func parse(t *testing.T, args ...string) cliFlags {
	t.Helper()
	fs := flag.NewFlagSet("salient", flag.ContinueOnError)
	var f cliFlags
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		cmd     string
		args    []string
		wantErr string // "" = valid
	}{
		{"fig1", []string{"-trace", "out"}, ""},
		{"fig2", []string{"-all"}, ""},
		{"table1", nil, ""},
		{"train", nil, ""},
		{"train", []string{"-replicas", "2", "-fused"}, ""},
		{"train", []string{"-replicas", "2", "-executor", "pyg"}, ""},
		{"serve", nil, ""},
		// Exhibit flags outside their exhibit would be ignored.
		{"all", []string{"-trace", "out"}, "-trace applies to fig1 only"},
		{"fig2", []string{"-trace", "out"}, "-trace applies to fig1 only"},
		{"train", []string{"-trace", "out"}, "-trace applies to fig1 only"},
		{"table1", []string{"-all"}, "-all applies to fig2 only"},
		{"all", []string{"-all"}, "-all applies to fig2 only"},
		{"serve", []string{"-all"}, "-all applies to fig2 only"},
		// Existing train/serve rejections.
		{"serve", []string{"-fused"}, "-fused applies to train only"},
		{"train", []string{"-arch", "MLP"}, `unknown -arch "MLP"`},
		// Any replica count serves a result memo and a base store at any
		// precision.
		{"serve", []string{"-resultrows", "8"}, ""},
		{"train", []string{"-resultrows", "8"}, "-resultrows applies to serve only"},
		{"serve", []string{"-replicas", "2", "-precision", "fp16"}, ""},
		{"serve", []string{"-replicas", "2", "-precision", "int8"}, ""},
		{"serve", []string{"-replicas", "2", "-precision", "fp32"}, ""},
		{"serve", []string{"-replicas", "0"}, "-replicas must be >= 1"},
		// "lru" is no policy; the distributed mirror has no policy to choose.
		{"serve", []string{"-cachepolicy", "lru"}, `unknown policy "lru"`},
		{"train", []string{"-replicas", "2", "-transport", "loopback"}, ""},
		{"train", []string{"-replicas", "2", "-transport", "loopback", "-cachepolicy", "degree"}, ""},
		{"train", []string{"-replicas", "2", "-transport", "loopback", "-cachepolicy", "vip"}, "drop -cachepolicy vip"},
	} {
		f := parse(t, tc.args...)
		err := f.validate(tc.cmd)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("salient %s %v: unexpected error %v", tc.cmd, tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("salient %s %v: error %v, want one containing %q", tc.cmd, tc.args, err, tc.wantErr)
		}
	}
}

// runSalient runs the command with args in a child process and returns its
// combined output and exit code.
func runSalient(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SALIENT_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func TestCommandExits(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		wantCode int
		wantOut  string
	}{
		{[]string{"list"}, 0, strings.Join(bench.IDs(), "\n") + "\n"},
		{[]string{"fleet"}, 1, `unknown experiment "fleet"`},
		{[]string{"all", "-trace", "out"}, 2, "-trace applies to fig1 only"},
		{[]string{"serve", "-delay", "0"}, 2, "flag provided but not defined: -delay"},
		{[]string{"serve", "-fleet", "2"}, 2, "flag provided but not defined: -fleet"},
		{[]string{"serve", "-replicas", "2", "-dynamic", "-maxskew", "4"}, 2, "flag provided but not defined: -maxskew"},
		{[]string{"serve", "-cachepolicy", "lru"}, 2, `unknown policy "lru"`},
		// Happy paths, each well under a second at these scales.
		{[]string{"train", "-scale", "0.05", "-epochs", "1"}, 0, "epoch  0"},
		// At -scale 0.25 the 2295 training seeds make three 1024-seed
		// batches, so both replicas compute in the first step.
		{[]string{"train", "-scale", "0.25", "-epochs", "1", "-replicas", "2", "-fused"}, 0, "epoch  0"},
		{[]string{"train", "-scale", "0.25", "-epochs", "1", "-replicas", "2", "-executor", "pyg"}, 0, "epoch  0"},
		{[]string{"serve", "-scale", "0.08", "-epochs", "1", "-requests", "500", "-cachepolicy", "vip", "-embrows", "256"}, 0, "latency    p50"},
		// Result-memo hits count as served: every one of the 1500 requests
		// is answered.
		{[]string{"serve", "-scale", "0.08", "-epochs", "1", "-requests", "1500", "-replicas", "2", "-dynamic", "-churn", "2000", "-resultrows", "500"}, 0, "served     1500 requests"},
		// A sharded int8 base shared by two replicas, each with its own cache.
		{[]string{"serve", "-scale", "0.08", "-epochs", "1", "-requests", "500", "-replicas", "2", "-store", "sharded+cached", "-precision", "int8"}, 0, "replica 1: "},
	} {
		out, code := runSalient(t, tc.args...)
		if code != tc.wantCode || !strings.Contains(out, tc.wantOut) {
			t.Errorf("salient %v: exit %d, output:\n%s\nwant exit %d and output containing %q",
				tc.args, code, out, tc.wantCode, tc.wantOut)
		}
	}
}

// TestServeWarmsEveryReplicaCache: on a static graph the VIP warm-up
// re-places every replica's cache before the measured pass, so no replica
// serves from an empty one.
func TestServeWarmsEveryReplicaCache(t *testing.T) {
	out, code := runSalient(t, "serve", "-scale", "0.08", "-epochs", "1", "-requests", "500", "-replicas", "2", "-cachepolicy", "vip")
	var replicas int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "replica ") {
			continue
		}
		replicas++
		if !strings.Contains(line, "hit rate") || strings.Contains(line, "hit rate 0%") {
			t.Errorf("cold replica cache: %s", line)
		}
	}
	if code != 0 || replicas != 2 {
		t.Fatalf("exit %d with %d replica lines, want exit 0 and 2; output:\n%s", code, replicas, out)
	}
}
