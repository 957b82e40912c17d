package core

import (
	"testing"
	"time"

	"repro/internal/ids"
)

// sleepApp: a sleeper thread naps while a worker races ahead; the sleeper
// then reads the counter. The value it observes depends on how much the
// worker did during the nap.
func sleepApp(t *testing.T, cfg Config, nap time.Duration) (int64, time.Duration, *VM) {
	t.Helper()
	vm, err := NewVM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	observed, elapsed := runSleepApp(vm, nap)
	return observed, elapsed, vm
}

// runSleepApp runs sleepApp's program on vm and closes it.
func runSleepApp(vm *VM, nap time.Duration) (int64, time.Duration) {
	var x SharedInt
	var observed int64
	start := time.Now()
	vm.Start(func(main *Thread) {
		done := make(chan struct{}, 2)
		main.Spawn(func(th *Thread) {
			defer func() { done <- struct{}{} }()
			th.Sleep(nap)
			observed = x.Get(th)
		})
		main.Spawn(func(th *Thread) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 5000; i++ {
				x.Set(th, int64(i)+1)
			}
		})
		<-done
		<-done
	})
	vm.Wait()
	elapsed := time.Since(start)
	vm.Close()
	return observed, elapsed
}

func TestSleepRecordReplayAndTimeCompression(t *testing.T) {
	const nap = 50 * time.Millisecond
	recObserved, recElapsed, recVM := sleepApp(t, Config{ID: 80, Mode: ids.Record}, nap)
	if recElapsed < nap {
		t.Fatalf("record run took %v, less than the %v nap", recElapsed, nap)
	}
	// Replay consumes the recorded sleep slot and ignores its argument, so a
	// replay asked to nap for an hour returns at once if the sleep is elided.
	repVM, err := NewVM(Config{ID: 80, Mode: ids.Replay, ReplayLogs: recVM.Logs()})
	if err != nil {
		t.Fatal(err)
	}
	rep := make(chan int64, 1)
	go func() {
		observed, _ := runSleepApp(repVM, time.Hour)
		rep <- observed
	}()
	select {
	case repObserved := <-rep:
		if repObserved != recObserved {
			t.Errorf("sleeper observed %d during replay, %d during record", repObserved, recObserved)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replay of a one-hour sleep has not returned after 30s; the sleep was not elided")
	}
}

func TestSleepPassthrough(t *testing.T) {
	const nap = 20 * time.Millisecond
	_, elapsed, vm := sleepApp(t, Config{ID: 81, Mode: ids.Passthrough}, nap)
	if elapsed < nap {
		t.Errorf("passthrough run took %v, less than the %v nap", elapsed, nap)
	}
	if vm.Stats().CriticalEvents != 0 {
		t.Error("passthrough counted critical events")
	}
}
