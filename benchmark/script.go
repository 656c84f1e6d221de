package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"stagedweb/internal/tpcw"
)

// The request scripts are the benchmark's inputs. Everything in them is
// drawn from -seed before the window opens; the program under test only
// ever sees the generated bytes. The one response-derived field is the
// shopping-cart id (sc_id), spliced in at send time exactly as
// workload.browser carries it from page to page.

// reqHead ends every request line; the X-Bench-Id value and the final
// CRLFs follow it. The id is the request span's identity, read back
// from Request.Header by the traced pass, and is sent on every pass so
// traced and untraced runs put the same bytes on the wire.
const reqHead = " HTTP/1.1\r\nHost: tpcw\r\nUser-Agent: stagedbench\r\nConnection: keep-alive\r\nX-Bench-Id: "

// Think-time bounds in paper time (TPC-W; workload.Config's defaults).
const (
	thinkMin = 700 * time.Millisecond
	thinkMax = 7 * time.Second
)

// searchWords are common title words, so searches return results (the
// same terms workload.browser searches for).
var searchWords = []string{
	"THE", "SECRET", "LOST", "GOLDEN", "RIVER", "CITY", "HISTORY",
	"SCIENCE", "JOURNEY", "NIGHT", "GUIDE", "WORLD",
}

// interaction is one web interaction: a page request and the image
// requests a browser with a cold cache would follow it with.
type interaction struct {
	page   int      // index into tpcw.Pages
	target []byte   // "GET /page?k=v": request bytes up to the cart id
	cart   bool     // append "&sc_id=<id>" while the session holds a cart
	images [][]byte // "GET /img/x.gif", in document order
	// newSession starts a browser session: the cart is forgotten.
	newSession bool
	think      time.Duration // paper time slept after the interaction
}

// script is one connection slot's input.
type script struct {
	steps []interaction
}

var pageIndex = func() map[string]int {
	m := make(map[string]int, len(tpcw.Pages))
	for i, p := range tpcw.Pages {
		m[p] = i
	}
	return m
}()

// deckSize is the number of cards in one deck of pages: the mixes give
// weights to a hundredth of a percent, so 10000 cards hold a mix exactly.
const deckSize = 10000

// pageStream deals n pages from shuffled decks. Each deck holds every
// page in exact mix proportion, so the realised mix of any run that
// consumes about a deck is the TPC-W mix to within a fraction of a
// percent whatever the seed — drawing each page independently would
// move the share of the expensive scan pages, and with it every
// per-request figure, by a few percent from seed to seed.
func pageStream(mix []tpcw.PageWeight, n int, rng *rand.Rand) []string {
	deck := make([]string, 0, deckSize)
	for _, pw := range mix {
		for k := int(pw.Weight*100 + 0.5); k > 0; k-- {
			deck = append(deck, pw.Page)
		}
	}
	out := make([]string, 0, n+len(deck))
	for len(out) < n {
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		out = append(out, deck...)
	}
	return out[:n]
}

// genScripts draws one script per connection slot. The page stream is
// dealt round-robin, so the slots together walk the decks in order.
func genScripts(w workload, counts tpcw.Counts, seed int64) []*script {
	stream := pageStream(w.mix, w.conns*w.scriptLen, rand.New(rand.NewSource(seed*1_000_003)))
	out := make([]*script, w.conns)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c+1)*7919))
		out[c] = genScript(w, counts, stream, rng, c)
	}
	return out
}

func genScript(w workload, counts tpcw.Counts, stream []string, rng *rand.Rand, slot int) *script {
	s := &script{steps: make([]interaction, w.scriptLen)}
	cID := slot%counts.Customers + 1 // workload.browser's fixed identity
	for i := range s.steps {
		it := &s.steps[i]
		if w.sessionEvery > 0 && i%w.sessionEvery == 0 {
			it.newSession = true
			cID = 1 + rng.Intn(counts.Customers)
		}
		page := stream[i*w.conns+slot]
		it.page = pageIndex[page]
		var iID int
		it.target, it.cart, iID = buildTarget(page, cID, counts.Items, rng)
		if w.images {
			it.images = pageImages(page, iID, rng)
		}
		if w.think {
			it.think = thinkMin + time.Duration(rng.Int63n(int64(thinkMax-thinkMin)+1))
		}
	}
	s.steps[0].newSession = true
	return s
}

// buildTarget assembles the parameters each interaction needs, as
// workload.browser.buildURL does, in a fixed parameter order with the
// cart id (when any) last.
func buildTarget(page string, cID, items int, rng *rand.Rand) (target []byte, cart bool, iID int) {
	b := append([]byte("GET "), page...)
	q := func(sep byte, k, v string) {
		b = append(b, sep)
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, v...)
	}
	cid := strconv.Itoa(cID)
	switch page {
	case tpcw.PageHome:
		q('?', "c_id", cid)
	case tpcw.PageProductDetail, tpcw.PageAdminRequest:
		iID = 1 + rng.Intn(items)
		q('?', "i_id", strconv.Itoa(iID))
	case tpcw.PageNewProducts, tpcw.PageBestSellers:
		q('?', "subject", tpcw.Subjects[rng.Intn(len(tpcw.Subjects))])
	case tpcw.PageExecuteSearch:
		field := []string{"title", "author", "subject"}[rng.Intn(3)]
		q('?', "field", field)
		if field == "subject" {
			q('&', "terms", tpcw.Subjects[rng.Intn(len(tpcw.Subjects))])
		} else {
			q('&', "terms", searchWords[rng.Intn(len(searchWords))])
		}
	case tpcw.PageShoppingCart:
		// The customer id rides along on every cart-flow page so a
		// sharded cluster pins the checkout to the customer's shard.
		q('?', "c_id", cid)
		q('&', "i_id", strconv.Itoa(1+rng.Intn(items)))
		q('&', "qty", strconv.Itoa(1+rng.Intn(3)))
		cart = true
	case tpcw.PageCustomerReg, tpcw.PageBuyConfirm:
		q('?', "c_id", cid)
		cart = true
	case tpcw.PageBuyRequest:
		q('?', "c_id", cid)
		q('&', "passwd", "pw"+cid)
		q('&', "uname", tpcw.Uname(cID))
		cart = true
	case tpcw.PageOrderDisplay:
		q('?', "passwd", "pw"+cid)
		q('&', "uname", tpcw.Uname(cID))
	case tpcw.PageAdminResponse:
		iID = 1 + rng.Intn(items)
		q('?', "cost", fmt.Sprintf("%d.99", 1+rng.Intn(99)))
		q('&', "i_id", strconv.Itoa(iID))
	}
	return b, cart, iID
}

// Static image buckets (tpcw/static.go): item rows reference
// /img/thumb_<id mod 100>.gif and /img/image_<id mod 100>.gif.
const imageBuckets = 100

var (
	imgBanner = []byte("GET /img/banner.gif")
	imgFooter = []byte("GET /img/footer.gif")
)

// pageImages lists the images a browser fetches after a page: the
// distinct src= references in document order, capped at six, as
// workload.extractImages finds them. Which thumbnails a listing shows
// depends on server state, so the generator draws them from the seed
// instead — every thumbnail is the same size, so the work is the same.
func pageImages(page string, iID int, rng *rand.Rand) [][]byte {
	switch page {
	case tpcw.PageHome, tpcw.PageShoppingCart, tpcw.PageSearchRequest:
		// Five rotating promotions: consecutive items, distinct thumbnails.
		first := rng.Intn(imageBuckets)
		imgs := [][]byte{imgBanner}
		for k := 0; k < 5; k++ {
			imgs = append(imgs, thumb((first+k)%imageBuckets))
		}
		return imgs
	case tpcw.PageNewProducts, tpcw.PageExecuteSearch:
		// A result list: the first five distinct thumbnails.
		imgs := [][]byte{imgBanner}
		seen := map[int]bool{}
		for len(imgs) < 6 {
			if n := rng.Intn(imageBuckets); !seen[n] {
				seen[n] = true
				imgs = append(imgs, thumb(n))
			}
		}
		return imgs
	case tpcw.PageProductDetail:
		return [][]byte{imgBanner, images[iID%imageBuckets], imgFooter}
	default:
		return [][]byte{imgBanner, imgFooter}
	}
}

// thumbs and images hold each bucket's request line once; scripts share them.
var thumbs, images = func() (t, im [imageBuckets][]byte) {
	for n := range t {
		t[n] = []byte("GET /img/thumb_" + strconv.Itoa(n) + ".gif")
		im[n] = []byte("GET /img/image_" + strconv.Itoa(n) + ".gif")
	}
	return t, im
}()

func thumb(n int) []byte { return thumbs[n] }

// appendRequest renders one request into buf: the target, the cart id
// if the session holds one, the fixed head, and the request id.
func appendRequest(buf, target []byte, scID int, id uint64) []byte {
	buf = append(buf, target...)
	if scID > 0 {
		buf = append(buf, "&sc_id="...)
		buf = strconv.AppendInt(buf, int64(scID), 10)
	}
	buf = append(buf, reqHead...)
	buf = strconv.AppendUint(buf, id, 10)
	return append(buf, "\r\n\r\n"...)
}

// requests counts the HTTP requests in one pass over the script.
func (s *script) requests() int {
	n := 0
	for i := range s.steps {
		n += 1 + len(s.steps[i].images)
	}
	return n
}

// wire renders the first max requests of the script (all when max <= 0)
// as the bytes a cart-less session sends, with request ids counting
// from 1. Equal seeds must give equal bytes.
func (s *script) wire(max int) []byte {
	var out bytes.Buffer
	var buf []byte
	id := uint64(0)
	emit := func(target []byte) bool {
		id++
		buf = appendRequest(buf[:0], target, 0, id)
		out.Write(buf)
		return max > 0 && int(id) >= max
	}
	for i := range s.steps {
		if emit(s.steps[i].target) {
			return out.Bytes()
		}
		for _, img := range s.steps[i].images {
			if emit(img) {
				return out.Bytes()
			}
		}
	}
	return out.Bytes()
}
