package passivelight

import (
	"runtime"
	"testing"
	"time"
)

// goroutineGrace is how long a test's Close paths get to wind their
// goroutines down before checkGoroutines counts the rest as leaked.
const goroutineGrace = 3 * time.Second

// checkGoroutines records the goroutine count before a test starts
// anything, and registers a cleanup that runs after every cleanup
// registered later, so after the test's Close calls. It waits up to
// goroutineGrace for the count to fall back to the recorded one, then
// fails the test with every goroutine's stack. Call it first.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(goroutineGrace)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Errorf("%d goroutines still running %v after Close, %d before Start:\n%s", n, goroutineGrace, before, buf)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
