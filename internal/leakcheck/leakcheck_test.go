package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func parked(stop <-chan struct{}) { <-stop }

func TestLeakedSeesModuleGoroutines(t *testing.T) {
	if s := leaked(); s != "" {
		t.Fatalf("goroutines before the test:\n%s", s)
	}
	stop := make(chan struct{})
	go parked(stop)
	if s := wait(100 * time.Millisecond); !strings.Contains(s, "leakcheck.parked") {
		t.Fatalf("parked goroutine not reported:\n%s", s)
	}
	close(stop)
	if s := wait(settle); s != "" {
		t.Fatalf("goroutine still reported after it exited:\n%s", s)
	}
}
