package main

import (
	"context"
	"sync"
	"time"
)

// pollEvery is how often a waiting client checks whether its windows are
// visible; it bounds the resolution of every commit-latency sample.
const pollEvery = 250 * time.Microsecond

// reqTimes are the instants one request passed through.
type reqTimes struct {
	due, sent, acked, visible time.Time
	ok                        bool // accepted and then seen
}

// openLoop releases request i at start+due[i], whatever state earlier
// requests are in, to the first of senders goroutines that is free; a
// further goroutine polls visible(i) until every accepted request is
// seen. Latency runs from the due time, so a stall that holds up sending
// or serving is charged to every request queued behind it. send reports
// whether the request was accepted. Requests not visible within grace
// after the last send stay !ok.
func openLoop(ctx context.Context, due []time.Duration, senders int, grace time.Duration, send func(i int) bool, visible func(i int) bool) []reqTimes {
	times := make([]reqTimes, len(due))
	accepted := make(chan int, len(due))
	var watchers sync.WaitGroup
	watchers.Add(1)
	go func() {
		defer watchers.Done()
		watch(ctx, accepted, grace, times, visible)
	}()

	work := make(chan int)
	var sending sync.WaitGroup
	for s := 0; s < senders; s++ {
		sending.Add(1)
		go func() {
			defer sending.Done()
			for i := range work {
				t := &times[i]
				t.sent = time.Now()
				if send(i) {
					t.acked = time.Now()
					accepted <- i
				}
			}
		}()
	}

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i, d := range due {
		times[i].due = start.Add(d)
		timer.Reset(time.Until(times[i].due))
		select {
		case <-ctx.Done():
		case <-timer.C:
		}
		if ctx.Err() != nil {
			break
		}
		// Blocks while every sender is busy: the request is late, and
		// its latency, counted from the due time, shows it.
		work <- i
	}
	close(work)
	sending.Wait()
	close(accepted)
	watchers.Wait()
	return times
}

// watch polls every accepted request until it is visible, the channel is
// closed with nothing left pending, or grace has passed since the close.
func watch(ctx context.Context, accepted <-chan int, grace time.Duration, times []reqTimes, visible func(i int) bool) {
	var pending []int
	var giveUp <-chan time.Time
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	in := accepted
	for in != nil || len(pending) > 0 {
		select {
		case i, open := <-in:
			if !open {
				in = nil
				giveUp = time.After(grace)
				continue
			}
			pending = append(pending, i)
		case <-giveUp:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		kept := pending[:0]
		for _, i := range pending {
			if visible(i) {
				times[i].visible = time.Now()
				times[i].ok = true
			} else {
				kept = append(kept, i)
			}
		}
		pending = kept
	}
}

// waitVisible polls until visible reports true, ctx ends, or limit passes.
func waitVisible(ctx context.Context, limit time.Duration, visible func() bool) bool {
	end := time.Now().Add(limit)
	for !visible() {
		if ctx.Err() != nil || time.Now().After(end) {
			return false
		}
		time.Sleep(pollEvery)
	}
	return true
}
