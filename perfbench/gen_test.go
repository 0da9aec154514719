package main

import (
	"reflect"
	"testing"
	"time"
)

var genKernels = []string{"xalancbmk", "mcf", "lbm", "gcc", "leela"}

func TestScheduleSameSeedSameSchedule(t *testing.T) {
	a := schedule(7, 10*time.Second, serveRate, genKernels)
	b := schedule(7, 10*time.Second, serveRate, genKernels)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
}

func TestScheduleDifferentSeedDifferentSchedule(t *testing.T) {
	a := schedule(7, 10*time.Second, serveRate, genKernels)
	b := schedule(8, 10*time.Second, serveRate, genKernels)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	dur := 30 * time.Second
	s := schedule(3, dur, serveRate, genKernels)
	if n, want := float64(len(s)), serveRate*dur.Seconds(); n < 0.9*want || n > 1.1*want {
		t.Errorf("%v requests, want about %v", n, want)
	}
	fresh := map[serveReq]bool{}
	perKernel := map[string]int{}
	repeats := 0
	var last time.Duration
	for _, r := range s {
		if r.due < last || r.due >= dur {
			t.Fatalf("due %v out of order or past %v", r.due, dur)
		}
		last = r.due
		if r.repeat {
			repeats++
			if r.maxUops != serveHotUops {
				t.Errorf("repeat with budget %d", r.maxUops)
			}
			continue
		}
		key := serveReq{kernel: r.kernel, maxUops: r.maxUops}
		if fresh[key] || r.maxUops == serveHotUops {
			t.Errorf("fresh config %s/%d is not distinct", r.kernel, r.maxUops)
		}
		fresh[key] = true
		perKernel[r.kernel]++
	}
	if want := len(s) * serveRepeats / serveBlock; repeats < want-serveRepeats || repeats > want+serveRepeats {
		t.Errorf("%d repeats in %d requests, want %d of every %d", repeats, len(s), serveRepeats, serveBlock)
	}
	lo, hi := len(s), 0
	for _, n := range perKernel {
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 1 {
		t.Errorf("fresh requests per kernel range %d..%d, want balanced", lo, hi)
	}
}
