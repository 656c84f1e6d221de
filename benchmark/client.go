package main

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stagedweb/internal/clock"
	"stagedweb/internal/tpcw"
)

// clk is the benchmark's only source of time (cmd/vetcheck's wallclock
// rule): real time, read through the repo's clock interface.
var clk clock.Clock = clock.Real{}

// expectation is what a correct response to a request looks like.
type expectation struct {
	marker []byte // must occur in the body
	size   int    // exact body length; 0 = any
}

var gifMagic = []byte("GIF89a")

// pageMarkers holds each page's <title>, rendered by its own template,
// so a response that is well-formed but of the wrong page fails.
var pageMarkers = func() [][]byte {
	titles := map[string]string{
		tpcw.PageAdminRequest:  "<title>TPC-W Bookstore - Admin Request</title>",
		tpcw.PageAdminResponse: "<title>TPC-W Bookstore - Admin Confirm</title>",
		tpcw.PageBestSellers:   "<title>TPC-W Bookstore - Best Sellers</title>",
		tpcw.PageBuyConfirm:    "<title>TPC-W Bookstore - Order Confirmation</title>",
		tpcw.PageBuyRequest:    "<title>TPC-W Bookstore - Buy Request</title>",
		tpcw.PageCustomerReg:   "<title>TPC-W Bookstore - Customer Registration</title>",
		tpcw.PageExecuteSearch: "<title>TPC-W Bookstore - Search Results</title>",
		tpcw.PageHome:          "<title>TPC-W Bookstore - Home</title>",
		tpcw.PageNewProducts:   "<title>TPC-W Bookstore - New Products</title>",
		tpcw.PageOrderDisplay:  "<title>TPC-W Bookstore - Order Display</title>",
		tpcw.PageOrderInquiry:  "<title>TPC-W Bookstore - Order Inquiry</title>",
		tpcw.PageProductDetail: "<p>Subject: ", // its title is the item's
		tpcw.PageSearchRequest: "<title>TPC-W Bookstore - Search</title>",
		tpcw.PageShoppingCart:  "<title>TPC-W Bookstore - Shopping Cart</title>",
	}
	out := make([][]byte, len(tpcw.Pages))
	for i, p := range tpcw.Pages {
		out[i] = []byte(titles[p])
	}
	return out
}()

// imageExpectation derives a static's expected body from its request
// line ("GET /img/thumb_7.gif"); sizes are tpcw/static.go's.
func imageExpectation(target []byte) expectation {
	size := 0
	switch {
	case bytes.HasPrefix(target, []byte("GET /img/thumb_")):
		size = 1536
	case bytes.HasPrefix(target, []byte("GET /img/image_")):
		size = 8192
	case bytes.Equal(target, imgBanner):
		size = 4096
	case bytes.Equal(target, imgFooter):
		size = 1024
	}
	return expectation{marker: gifMagic, size: size}
}

// wireConn is a keep-alive HTTP/1.1 client connection that allocates
// nothing per request: requests are rendered into a reused buffer and
// responses are parsed in place in another.
type wireConn struct {
	nc   net.Conn
	wbuf []byte
	rbuf []byte
}

func (c *wireConn) close() {
	if c.nc != nil {
		_ = c.nc.Close()
		c.nc = nil
	}
}

var (
	errBadResponse = errors.New("malformed response")
	hdrEnd         = []byte("\r\n\r\n")
	hdrLength      = []byte("Content-Length: ")
)

// ioTimeout bounds a dial and then the connection's whole life, so a
// hung server fails the run instead of hanging it. No connection the
// benchmark opens is meant to live a tenth as long: real-time slots
// re-dial every 64 interactions and paper_heavy's every interaction.
const ioTimeout = 60 * time.Second

// dialWire opens a client connection with its lifetime deadline set.
func dialWire(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	_ = nc.SetDeadline(clk.Now().Add(ioTimeout))
	return nc, nil
}

// roundTrip sends the request already rendered in c.wbuf and reads one
// response. The returned body aliases c.rbuf until the next call.
func (c *wireConn) roundTrip() (status int, body []byte, err error) {
	if _, err = c.nc.Write(c.wbuf); err != nil {
		return 0, nil, err
	}
	n, head := 0, -1
	for head < 0 {
		if n == len(c.rbuf) {
			c.rbuf = append(c.rbuf, make([]byte, len(c.rbuf))...)
		}
		m, rerr := c.nc.Read(c.rbuf[n:])
		if m == 0 && rerr != nil {
			return 0, nil, rerr
		}
		from := n - 3
		if from < 0 {
			from = 0
		}
		n += m
		if i := bytes.Index(c.rbuf[from:n], hdrEnd); i >= 0 {
			head = from + i
		}
	}
	hdr := c.rbuf[:head]
	// "HTTP/1.1 200 OK"
	if len(hdr) < 12 || !bytes.HasPrefix(hdr, []byte("HTTP/1.")) {
		return 0, nil, errBadResponse
	}
	for _, d := range hdr[9:12] {
		if d < '0' || d > '9' {
			return 0, nil, errBadResponse
		}
		status = status*10 + int(d-'0')
	}
	i := bytes.Index(hdr, hdrLength)
	if i < 0 {
		return 0, nil, errBadResponse
	}
	length, digits := 0, 0
	for _, d := range hdr[i+len(hdrLength):] {
		if d < '0' || d > '9' {
			break
		}
		length = length*10 + int(d-'0')
		digits++
	}
	if digits == 0 {
		return 0, nil, errBadResponse
	}
	total := head + len(hdrEnd) + length
	if total > len(c.rbuf) {
		c.rbuf = append(c.rbuf, make([]byte, total-len(c.rbuf))...)
	}
	for n < total {
		m, rerr := c.nc.Read(c.rbuf[n:total])
		if m == 0 && rerr != nil {
			return 0, nil, rerr
		}
		n += m
	}
	return status, c.rbuf[head+len(hdrEnd) : total], nil
}

// check reports whether a response is correct for its request.
func (e expectation) check(status int, body []byte) bool {
	if status < 200 || status >= 400 {
		return false
	}
	if e.size > 0 && len(body) != e.size {
		return false
	}
	return bytes.Contains(body, e.marker)
}

// sample is one HTTP request as the client saw it; converted to a
// `request` span by the traced pass.
type sample struct {
	id    uint64
	start int64 // ns since the run epoch
	dur   int64 // ns
	size  int32 // response body bytes
	page  int16 // index into tpcw.Pages; -1 for a static
	ok    bool
}

// wirtSample is one whole interaction (page + images).
type wirtSample struct {
	end  int64 // ns since the run epoch
	dur  int64
	page int16
	ok   bool
}

// slot is one closed-loop connection slot replaying its script.
type slot struct {
	idx     int
	script  *script
	samples []sample
	wirts   []wirtSample

	mu sync.Mutex
	nc net.Conn // the open connection, for halt to interrupt
}

// adopt publishes the slot's new connection, unless the driver has
// already stopped.
func (s *slot) adopt(d *driver, nc net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.stop.Load() {
		_ = nc.Close()
		return false
	}
	s.nc = nc
	return true
}

// driver runs the closed loop: every slot sends its next request only
// after the previous reply, until stop.
type driver struct {
	w     workload
	addr  string
	epoch time.Time
	slots []*slot
	stop  atomic.Bool
	wg    sync.WaitGroup
}

// newDriver pre-sizes every sample buffer for warm-up plus a window of
// the given length at the workload's maxRPS, so that recording a request
// costs no allocation inside the window.
func newDriver(w workload, addr string, scripts []*script, seconds int, epoch time.Time) *driver {
	d := &driver{w: w, addr: addr, epoch: epoch}
	reqs := w.maxRPS * (seconds + 3) / len(scripts)
	wirts := reqs
	if w.images {
		wirts = reqs / 3 // every interaction with images is at least three requests
	}
	for i, sc := range scripts {
		d.slots = append(d.slots, &slot{
			idx:     i,
			script:  sc,
			samples: make([]sample, 0, reqs),
			wirts:   make([]wirtSample, 0, wirts),
		})
	}
	return d
}

func (d *driver) start() {
	for _, s := range d.slots {
		d.wg.Add(1)
		go func(s *slot) {
			defer d.wg.Done()
			d.run(s)
		}(s)
	}
}

// halt stops every slot and waits. It is called after the window has
// closed, so in-flight requests are interrupted rather than awaited: a
// queued paper_heavy page can be seconds from its reply.
func (d *driver) halt() {
	d.stop.Store(true)
	for _, s := range d.slots {
		s.mu.Lock()
		if s.nc != nil {
			_ = s.nc.SetDeadline(d.epoch) // long past
		}
		s.mu.Unlock()
	}
	d.wg.Wait()
}

func (d *driver) since() int64 { return int64(clk.Since(d.epoch)) }

// scanInt reads the digits following the first occurrence of marker.
func scanInt(body, marker []byte) int {
	i := bytes.Index(body, marker)
	if i < 0 {
		return 0
	}
	n := 0
	for _, c := range body[i+len(marker):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

var cartMarker = []byte("sc_id=")

// nextCart is the session's cart id after a verified page: a cart page
// names the cart in its checkout link, a confirmed purchase empties it.
func nextCart(page int, body []byte, scID int) int {
	switch tpcw.Pages[page] {
	case tpcw.PageShoppingCart:
		if id := scanInt(body, cartMarker); id > 0 {
			return id
		}
	case tpcw.PageBuyConfirm:
		return 0
	}
	return scID
}

// runner is one slot's connection state while it replays its script.
type runner struct {
	d      *driver
	s      *slot
	c      wireConn
	onConn int // interactions served by the current connection
	seq    uint64
}

// request performs one request and records its sample. The connection
// is dialled inside the first request's timing, as workload.browser
// times an interaction from before its dial.
func (r *runner) request(target []byte, cart int, page int16, exp expectation) (body []byte, ok bool) {
	r.seq++
	id := uint64(r.s.idx)<<40 | r.seq
	start := r.d.since()
	if r.c.nc == nil {
		nc, err := dialWire(r.d.addr)
		if err != nil || !r.s.adopt(r.d, nc) {
			r.s.samples = append(r.s.samples, sample{id: id, start: start, dur: r.d.since() - start, page: page})
			return nil, false
		}
		r.c.nc, r.onConn = nc, 0
	}
	r.c.wbuf = appendRequest(r.c.wbuf[:0], target, cart, id)
	status, body, err := r.c.roundTrip()
	ok = err == nil && exp.check(status, body)
	r.s.samples = append(r.s.samples, sample{id: id, start: start, dur: r.d.since() - start, size: int32(len(body)), page: page, ok: ok})
	if !ok {
		r.c.close() // the stream may be out of step; start clean
	}
	return body, ok
}

func (d *driver) run(s *slot) {
	r := &runner{d: d, s: s, c: wireConn{wbuf: make([]byte, 0, 512), rbuf: make([]byte, 64<<10)}}
	defer r.c.close()
	scID := 0
	for i := 0; !d.stop.Load(); i++ {
		it := &s.script.steps[i%len(s.script.steps)]
		if it.newSession {
			scID = 0
		}
		if r.onConn >= d.w.reconnectEvery {
			r.c.close()
		}
		t0 := d.since()
		cart := 0
		if it.cart {
			cart = scID
		}
		body, ok := r.request(it.target, cart, int16(it.page), expectation{marker: pageMarkers[it.page]})
		if ok {
			scID = nextCart(it.page, body, scID)
			for _, img := range it.images {
				if _, ok = r.request(img, 0, -1, imageExpectation(img)); !ok {
					break // image failures charge the parent page
				}
			}
		}
		end := d.since()
		s.wirts = append(s.wirts, wirtSample{end: end, dur: end - t0, page: int16(it.page), ok: ok})
		r.onConn++
		if it.think > 0 {
			clk.Sleep(d.w.scale.Wall(it.think))
		}
	}
}
