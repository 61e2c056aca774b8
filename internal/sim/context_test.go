package sim

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"dasesim/internal/config"
	"dasesim/internal/kernels"
)

// TestRunContextMatchesRun proves the chunked context-polling loop changes
// nothing about the simulation itself.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := config.Default()
	cfg.IntervalCycles = 10_000
	ps := []kernels.Profile{mustKernel(t, "SB"), mustKernel(t, "SD")}
	plain, err := RunShared(cfg, ps, []int{8, 8}, 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := RunSharedContext(context.Background(), cfg, ps, []int{8, 8}, 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(viaCtx)
	if string(a) != string(b) {
		t.Fatal("RunSharedContext diverged from RunShared")
	}
}

func TestRunContextCancel(t *testing.T) {
	cfg := config.Default()
	g, err := New(cfg, []kernels.Profile{mustKernel(t, "SB")}, []int{cfg.NumSMs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.RunContext(ctx, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if g.Cycle() > ctxCheckCycles {
		t.Fatalf("simulated %d cycles after cancellation", g.Cycle())
	}
}

func TestRunContextDeadline(t *testing.T) {
	cfg := config.Default()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunAloneContext(ctx, cfg, mustKernel(t, "SB"), 500_000_000, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	// The bound exists to catch a deadline being ignored outright (the full
	// budget would run for hours). It is deliberately loose: one polling
	// chunk is only ctxCheckCycles cycles, but a loaded CI runner under the
	// race detector can stall the test goroutine for seconds.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored for %v", elapsed)
	}
}

func mustKernel(t *testing.T, abbr string) kernels.Profile {
	t.Helper()
	p, ok := kernels.ByAbbr(abbr)
	if !ok {
		t.Fatalf("kernel %s missing", abbr)
	}
	return p
}
