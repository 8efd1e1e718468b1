package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"icdb/internal/wire"
)

// sample is one completed command.
type sample struct {
	cmd        command
	session    int
	measured   bool // false for warmup commands
	start, end time.Time
	rows       int
	failed     bool
	srv        serverRec // traced runs only
}

// phase is the outcome of one closed-loop run against a booted server.
type phase struct {
	samples           []sample // every command, in completion order
	t0, t1            time.Time
	attempted, failed int
	errs              []string // the first few failures
	names             []string // implementation names find replies claimed
	// runtime counters around the measured phase
	memBefore, memAfter runtime.MemStats
}

// measured returns the samples of the measured phase.
func (p *phase) measured() []sample {
	var out []sample
	for _, s := range p.samples {
		if s.measured {
			out = append(out, s)
		}
	}
	return out
}

// cmdsPerSec is measured commands completed per second.
func (p *phase) cmdsPerSec() float64 {
	n := len(p.measured())
	if n == 0 || !p.t1.After(p.t0) {
		return 0
	}
	return float64(n) / p.t1.Sub(p.t0).Seconds()
}

// expandRows holds the row count of every design's expansion, which must
// not change between expansions of the same design.
type expandRows struct {
	mu   sync.Mutex
	rows map[string]int
}

func (e *expandRows) check(design string, n int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.rows[design]; ok && prev != n {
		return fmt.Errorf("expand %s: %d rows, earlier %d", design, n, prev)
	}
	e.rows[design] = n
	return nil
}

// runPhase drives the server with the workload's sessions in a closed
// loop: each session runs its warmup, then, once every session is warm,
// sends commands back to back for the given duration, each only after
// the previous command's Done.
func runPhase(s *server, m *manifest, w workload, seed uint64, seconds float64) (*phase, error) {
	clients := make([]*client, sessions)
	for i := range clients {
		c, err := dial(s.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}
	var (
		mu       sync.Mutex
		p        = &phase{}
		exp      = &expandRows{rows: map[string]int{}}
		warm     sync.WaitGroup
		start    = make(chan struct{})
		done     sync.WaitGroup
		deadline time.Time
	)
	record := func(smp sample, names []string, err error) {
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		if err != nil {
			smp.failed = true
			p.failed++
			if len(p.errs) < 5 {
				p.errs = append(p.errs, fmt.Sprintf("session %d %q: %v", smp.session, smp.cmd.text, err))
			}
		}
		p.names = append(p.names, names...)
		p.samples = append(p.samples, smp)
	}
	warm.Add(sessions)
	done.Add(sessions)
	for i := range sessions {
		go func() {
			defer done.Done()
			c := clients[i]
			gen := newStream(w, m, seed, i)
			var rows []string
			exec := func(cmd command, measured bool) bool {
				rows = rows[:0]
				t0 := time.Now()
				_, err := c.Exec(cmd.text, func(line string) { rows = append(rows, line) })
				t1 := time.Now()
				smp := sample{cmd: cmd, session: i, measured: measured, start: t0, end: t1, rows: len(rows)}
				if s.tr != nil {
					smp.srv = s.tr.drain(c.local)
				}
				var re *wire.RemoteError
				alive := err == nil || errors.As(err, &re) // anything else is a dead connection
				var names []string
				if err == nil {
					names, err = checkReply(m, cmd, rows)
				}
				if err == nil && cmd.kind == kindExpand {
					err = exp.check(cmd.want.design, len(rows))
				}
				record(smp, names, err)
				return alive
			}
			ok := true
			for _, cmd := range gen.warmup() {
				if ok = exec(cmd, false); !ok {
					break
				}
			}
			warm.Done()
			<-start
			for ok && time.Now().Before(deadline) {
				ok = exec(gen.nextCommand(), true)
			}
		}()
	}
	warm.Wait()
	runtime.ReadMemStats(&p.memBefore)
	p.t0 = time.Now()
	deadline = p.t0.Add(time.Duration(seconds * float64(time.Second)))
	close(start)
	done.Wait()
	runtime.ReadMemStats(&p.memAfter)
	sort.SliceStable(p.samples, func(i, j int) bool { return p.samples[i].end.Before(p.samples[j].end) })
	for _, smp := range p.samples {
		if smp.measured && smp.end.After(p.t1) {
			p.t1 = smp.end
		}
	}
	return p, nil
}
