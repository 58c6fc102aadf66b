package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kairos/internal/server"
)

// query is one generated input tuple. The program under test sees only
// these; the seed never reaches it.
type query struct {
	dueNS int64 // scheduled send time from the phase start (open loop)
	batch int32
	model uint8 // index into the phase's model names
}

// failures collects what went wrong with individual queries: a count and
// the first few messages, for the correctness gate's report.
type failures struct {
	mu    sync.Mutex
	n     int64
	first []string
}

func (f *failures) add(format string, args ...any) {
	f.mu.Lock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
	f.mu.Unlock()
}

func (f *failures) count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// openPhase is the outcome of one open-loop phase. The per-query slices
// are indexed like the input queries. Senders write only sent; readers
// write only done, svcMS and ok — no element has two writers.
type openPhase struct {
	queries []query
	sent    []int64   // actual send time, ns from phase start
	done    []int64   // reply receipt, ns from phase start; 0 = unanswered
	svcMS   []float64 // controller latency echoed in the reply, model ms
	ok      []bool
	// inflight samples sent−answered every sampleEvery.
	inflight []int32
	wallNS   int64 // phase start → last reply
	startNS  int64 // phase start on the span clock
}

const sampleEvery = 5 * time.Millisecond

// runOpen sends queries on their schedule over conns (query i rides
// connection i mod len(conns)) and waits for every reply. poll, when
// set, runs on the sampler's tick with the time since the phase start.
// idBase keeps wire IDs of successive phases apart, so a reply that
// strays across phases is caught as an ID-echo failure.
func runOpen(conns []*tcpClient, names []string, qs []query, idBase int64, fails *failures, poll func(nowNS int64)) (*openPhase, error) {
	n := len(qs)
	ph := &openPhase{
		queries: qs,
		sent:    make([]int64, n),
		done:    make([]int64, n),
		svcMS:   make([]float64, n),
		ok:      make([]bool, n),
	}
	var sentN, doneN atomic.Int64
	start := time.Now()
	ph.startNS = start.Sub(epoch).Nanoseconds()
	lastDue := time.Duration(0)
	if n > 0 {
		lastDue = time.Duration(qs[n-1].dueNS)
	}
	errs := make(chan error, 2*len(conns))
	var wg sync.WaitGroup
	for j, c := range conns {
		expect := (n - j + len(conns) - 1) / len(conns)
		if expect <= 0 {
			continue
		}
		c.conn.SetReadDeadline(start.Add(lastDue + readDeadline))
		wg.Add(2)
		go func(c *tcpClient, j int) { // sender
			defer wg.Done()
			for i := j; i < n; {
				now := time.Since(start).Nanoseconds()
				if d := qs[i].dueNS - now; d > 0 {
					paceSleep(time.Duration(d))
					now = time.Since(start).Nanoseconds()
					if now < qs[i].dueNS {
						continue // woken early
					}
				}
				k := 0
				for ; i < n && qs[i].dueNS <= now; i += len(conns) {
					ph.sent[i] = now
					if err := c.queue(idBase+int64(i), names[qs[i].model], int(qs[i].batch)); err != nil {
						errs <- err
						return
					}
					k++
				}
				sentN.Add(int64(k))
				if err := c.flush(); err != nil {
					errs <- fmt.Errorf("client write: %w", err)
					return
				}
			}
		}(c, j)
		go func(c *tcpClient, j, expect int) { // reader
			defer wg.Done()
			for got := 0; got < expect; got++ {
				rep, err := c.readReply()
				if err != nil {
					// Unanswered queries stay done==0 and count as failed.
					fails.add("connection %d: %d of %d replies, then %v", j, got, expect, err)
					return
				}
				now := time.Since(start).Nanoseconds()
				doneN.Add(1)
				i := rep.ID - idBase
				if i < 0 || i >= int64(n) || int(i)%len(conns) != j || ph.done[i] != 0 {
					fails.add("reply echoes ID %d, not an unanswered query of connection %d", rep.ID, j)
					continue
				}
				ph.done[i] = now
				ph.svcMS[i] = rep.ServiceMS
				switch {
				case rep.Err != "":
					fails.add("query %d: %s", rep.ID, rep.Err)
				case !(rep.ServiceMS > 0):
					fails.add("query %d: latency %v is not positive", rep.ID, rep.ServiceMS)
				default:
					ph.ok[i] = true
				}
			}
		}(c, j, expect)
	}
	finished := make(chan struct{})
	var swg sync.WaitGroup
	swg.Add(1)
	go func() { // sampler
		defer swg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-finished:
				return
			case <-tick.C:
				ph.inflight = append(ph.inflight, int32(sentN.Load()-doneN.Load()))
				if poll != nil {
					poll(time.Since(start).Nanoseconds())
				}
			}
		}
	}()
	wg.Wait()
	ph.wallNS = time.Since(start).Nanoseconds()
	close(finished)
	swg.Wait()
	select {
	case err := <-errs:
		return ph, err
	default:
	}
	return ph, nil
}

// closedSpan is one closed-loop query as the traced run keeps it.
type closedSpan struct {
	sentNS, doneNS int64
	svcMS          float32
	model          uint8
	instance       int8 // pool index of the serving type, -1 unknown (TCP)
}

// closedConn is one connection's share of a closed loop; closedRun is
// the connections' sum.
type closedConn struct {
	rttNS []int32 // measured-window round trips, in completion order
	// marks[k] is len(rttNS) when second k+1 of the measured window
	// began: the one-second windows the steady figures are taken over.
	marks     []int32
	spans     []closedSpan
	sent      int64 // everything sent, warm-up included
	completed int64 // OK replies received inside the measured window
	within    int64 // of those, round trips within the model's QoS
	// expired counts server.DeadlineExceededMsg replies.
	expired int64
	// served counts the measured replies by model and serving instance
	// type (HTTP only: the binary reply names no instance). One
	// connection is one session, so the modal type of a row is where
	// the affinity ring sent that session.
	served [][2]int64
}

type closedRun struct {
	closedConn              // sums over the connections; rttNS and marks unused
	conns      []closedConn // each connection's own samples
	startNS    int64        // loop start on the span clock
	// modal is the number of replies served by their session's modal
	// instance type; gpu the number served by the base type.
	modal, gpu, typed int64
}

// record keeps one OK round trip of the measured window, first closing
// the one-second windows that ended before it.
func (c *closedConn) record(sinceWarmNS, rttNS, qosNS int64) {
	for sinceWarmNS >= int64(len(c.marks)+1)*1e9 {
		c.marks = append(c.marks, int32(len(c.rttNS)))
	}
	c.rttNS = append(c.rttNS, int32(rttNS))
	c.completed++
	if rttNS <= qosNS {
		c.within++
	}
}

func mergeClosed(parts []closedConn, start time.Time) *closedRun {
	out := &closedRun{conns: parts, startNS: start.Sub(epoch).Nanoseconds()}
	for _, p := range parts {
		out.spans = append(out.spans, p.spans...)
		out.sent += p.sent
		out.completed += p.completed
		out.within += p.within
		out.expired += p.expired
		for _, row := range p.served {
			out.modal += max(row[0], row[1])
			out.gpu += row[0]
			out.typed += row[0] + row[1]
		}
	}
	return out
}

// closedPlan is what every closed-loop connection runs.
type closedPlan struct {
	names  []string
	picks  []uint8 // seeded model sequence, cycled
	batch  int
	qosNS  []int64       // per model: its QoS as wall nanoseconds
	warm   time.Duration // unmeasured lead-in
	run    time.Duration // measured window
	traced bool
	start  time.Time
	// deadlineMS rides on every HTTP request (the TCP loop sends none).
	deadlineMS int
}

// runClosed runs one closed loop per connection — each(j, out) is
// connection j's loop, filling its share — and returns after every
// connection has its last reply.
func runClosed(conns int, plan closedPlan, each func(j int, out *closedConn) error) (*closedRun, error) {
	parts := make([]closedConn, conns)
	errs := make(chan error, conns)
	var wg sync.WaitGroup
	for j := range parts {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			if err := each(j, &parts[j]); err != nil {
				errs <- fmt.Errorf("connection %d: %w", j, err)
			}
		}(j)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return mergeClosed(parts, plan.start), nil
}

// closedTCPConn drives window pipelined requests on one connection: each
// reply read triggers the next send, so a slow system receives less load.
func closedTCPConn(c *tcpClient, j int, plan closedPlan, window int, out *closedConn, fails *failures) error {
	warmNS, endNS := plan.warm.Nanoseconds(), (plan.warm + plan.run).Nanoseconds()
	c.conn.SetReadDeadline(plan.start.Add(plan.warm + plan.run + readDeadline))
	out.rttNS = make([]int32, 0, 1<<20)
	sentAt := make([]int64, window)
	model := make([]uint8, window)
	seq := make([]int64, window) // per-slot sequence; wire ID = seq*window + slot
	pick := j * 7919             // connections start at different points of the cycle
	send := func(slot int, now int64) error {
		seq[slot]++
		sentAt[slot] = now
		model[slot] = plan.picks[pick%len(plan.picks)]
		pick++
		out.sent++
		return c.queue(seq[slot]*int64(window)+int64(slot), plan.names[model[slot]], plan.batch)
	}
	now := time.Since(plan.start).Nanoseconds()
	for s := 0; s < window; s++ {
		if err := send(s, now); err != nil {
			return err
		}
	}
	if err := c.flush(); err != nil {
		return err
	}
	for outstanding := window; outstanding > 0; {
		rep, err := c.readReply()
		if err != nil {
			fails.add("connection %d: %d queries unanswered: %v", j, outstanding, err)
			return nil
		}
		now = time.Since(plan.start).Nanoseconds()
		outstanding--
		slot := int(rep.ID % int64(window))
		if rep.ID < 0 || rep.ID/int64(window) != seq[slot] || sentAt[slot] == 0 {
			fails.add("reply echoes ID %d, not an outstanding query of connection %d", rep.ID, j)
			continue
		}
		switch {
		case rep.Err != "":
			fails.add("query %d: %s", rep.ID, rep.Err)
		case !(rep.ServiceMS > 0):
			fails.add("query %d: latency %v is not positive", rep.ID, rep.ServiceMS)
		case now >= warmNS && now <= endNS:
			out.record(now-warmNS, now-sentAt[slot], plan.qosNS[model[slot]])
			if plan.traced {
				out.spans = append(out.spans, closedSpan{
					sentNS: sentAt[slot], doneNS: now, svcMS: float32(rep.ServiceMS), model: model[slot], instance: -1,
				})
			}
		}
		sentAt[slot] = 0
		if now < endNS {
			if err := send(slot, now); err != nil {
				return err
			}
			outstanding++
		}
		// Answer a burst of replies with one write.
		if c.br.Buffered() == 0 {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// closedHTTPConn drives one outstanding request on one keep-alive
// connection, every request carrying the connection's session key and the
// plan's deadline.
func closedHTTPConn(h *httpClient, j int, plan closedPlan, out *closedConn, fails *failures) error {
	warmNS, endNS := plan.warm.Nanoseconds(), (plan.warm + plan.run).Nanoseconds()
	h.conn.SetReadDeadline(plan.start.Add(plan.warm + plan.run + readDeadline))
	out.rttNS = make([]int32, 0, 1<<20)
	out.served = make([][2]int64, len(plan.names))
	session := "bench-session-" + strconv.Itoa(j)
	reqs := make([][]byte, len(plan.names))
	for m, name := range plan.names {
		reqs[m] = submitRequest(name, plan.batch, session, plan.deadlineMS)
	}
	pick := j * 7919
	for {
		t0 := time.Since(plan.start).Nanoseconds()
		if t0 >= endNS {
			return nil
		}
		m := plan.picks[pick%len(plan.picks)]
		pick++
		out.sent++
		status, body, err := h.roundTrip(reqs[m])
		if err != nil {
			fails.add("connection %d: unanswered: %v", j, err)
			return nil
		}
		now := time.Since(plan.start).Nanoseconds()
		if status != 200 {
			if bytes.Contains(body, []byte(server.DeadlineExceededMsg)) {
				out.expired++
			}
			fails.add("HTTP %d: %s", status, body)
			continue
		}
		lat, perr := strconv.ParseFloat(string(jsonField(body, "latency_ms")), 64)
		inst := benchPool.IndexOf(string(jsonField(body, "instance")))
		switch {
		case !bytes.Equal(jsonField(body, "model"), []byte(plan.names[m])):
			fails.add("reply names another model: %s", body)
		case perr != nil || !(lat > 0):
			fails.add("reply latency is not positive: %s", body)
		case inst < 0:
			fails.add("reply names an instance type outside the fleet: %s", body)
		case now >= warmNS && now <= endNS:
			out.record(now-warmNS, now-t0, plan.qosNS[m])
			out.served[m][inst]++
			if plan.traced {
				out.spans = append(out.spans, closedSpan{
					sentNS: t0, doneNS: now, svcMS: float32(lat), model: m, instance: int8(inst),
				})
			}
		}
	}
}
