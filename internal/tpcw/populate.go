package tpcw

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"stagedweb/internal/sqldb"
)

// PopulateConfig scales the TPC-W database. The paper's database (one
// million books, 2.88 million customers, 2.59 million orders) is scaled
// down by a constant factor; the paper itself observes that database size
// does not change which queries are fast (indexed) and which are slow
// (scans), so the factor preserves the evaluation's structure.
type PopulateConfig struct {
	Items     int // default 10000
	Customers int // default 2880
	Orders    int // default 2592
}

// populateSeed seeds the generator, so every population of one size is
// the same dataset: the DSN'09 conference date.
const populateSeed = 20090629

func (c *PopulateConfig) fillDefaults() {
	if c.Items <= 0 {
		c.Items = 10000
	}
	if c.Customers <= 0 {
		c.Customers = 2880
	}
	if c.Orders <= 0 {
		c.Orders = 2592
	}
}

// Counts reports the populated row counts.
type Counts struct {
	Items      int
	Customers  int
	Orders     int
	OrderLines int
}

// baseDate anchors all generated timestamps so population is fully
// deterministic.
var baseDate = time.Date(2008, 6, 1, 0, 0, 0, 0, time.UTC)

// PopulateShard fills db (whose tables must already exist) with one
// shard's slice of the deterministic TPC-W dataset: replicated tables
// (country, author, item, address) in full, partitioned tables
// (customer, orders, order_line, cc_xacts) restricted to the customers
// owns reports true for. owns == nil means own everything: the full,
// unsharded dataset.
//
// The returned Counts are GLOBAL (identical for every shard and to an
// unsharded population with the same config): the application sizes its
// parameter ranges from them, and request parameters span the whole
// key space no matter which shard serves the request. Row ids are
// global too — the generator walks the full dataset and skips inserts
// it doesn't own, drawing the same random values either way, so shard
// slices are disjoint, union to the full dataset, and stay stable as
// the shard count changes.
//
// The rows go in through a db.Loader connection, so loading charges no
// paper time: a database is set up before anything is measured on it.
func PopulateShard(db *sqldb.DB, cfg PopulateConfig, owns func(cID int) bool) (Counts, error) {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(populateSeed))
	c := db.Loader()
	defer c.Close()

	if err := populateCountries(c); err != nil {
		return Counts{}, err
	}
	if err := populateAuthors(c, rng, cfg); err != nil {
		return Counts{}, err
	}
	if err := populateItems(c, rng, cfg); err != nil {
		return Counts{}, err
	}
	if err := populateAddresses(c, rng, cfg); err != nil {
		return Counts{}, err
	}
	if err := populateCustomers(c, rng, cfg, owns); err != nil {
		return Counts{}, err
	}
	lines, err := populateOrders(c, rng, cfg, owns)
	return Counts{Items: cfg.Items, Customers: cfg.Customers, Orders: cfg.Orders, OrderLines: lines}, err
}

var countryNames = []string{
	"United States", "United Kingdom", "Canada", "Germany", "France",
	"Japan", "Netherlands", "Italy", "Switzerland", "Australia", "Algeria",
	"Argentina", "Armenia", "Austria", "Azerbaijan", "Bahamas", "Bahrain",
	"Bangladesh", "Barbados", "Belarus", "Belgium", "Bermuda", "Bolivia",
	"Botswana", "Brazil", "Bulgaria", "Cayman Islands", "Chad", "Chile",
	"China", "Christmas Island", "Colombia", "Croatia", "Cuba", "Cyprus",
	"Czech Republic", "Denmark", "Dominican Republic", "Eastern Caribbean",
	"Ecuador", "Egypt", "El Salvador", "Estonia", "Ethiopia",
	"Falkland Islands", "Faroe Islands", "Fiji", "Finland", "Gaza",
	"Gibraltar", "Greece", "Guam", "Hong Kong", "Hungary", "Iceland",
	"India", "Indonesia", "Iran", "Iraq", "Ireland", "Israel", "Jamaica",
	"Jordan", "Kazakhstan", "Kuwait", "Lebanon", "Luxembourg", "Malaysia",
	"Mexico", "Mauritius", "New Zealand", "Norway", "Pakistan",
	"Philippines", "Poland", "Portugal", "Romania", "Russia",
	"Saudi Arabia", "Singapore", "Slovakia", "South Africa", "South Korea",
	"Spain", "Sudan", "Sweden", "Taiwan", "Thailand", "Trinidad",
	"Turkey", "Venezuela", "Zambia",
}

func populateCountries(c *sqldb.Conn) error {
	for i, name := range countryNames {
		if _, err := c.Exec("INSERT INTO country (co_id, co_name) VALUES (?, ?)", i+1, name); err != nil {
			return fmt.Errorf("tpcw: country %d: %w", i+1, err)
		}
	}
	return nil
}

var firstNames = []string{
	"James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael",
	"Linda", "William", "Elizabeth", "David", "Barbara", "Richard", "Susan",
	"Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen",
}

var lastNames = []string{
	"Smith", "Johnson", "Williams", "Brown", "Jones", "Garcia", "Miller",
	"Davis", "Rodriguez", "Martinez", "Hernandez", "Lopez", "Gonzalez",
	"Wilson", "Anderson", "Thomas", "Taylor", "Moore", "Jackson", "Martin",
}

var titleWords = []string{
	"THE", "SECRET", "LOST", "COMPLETE", "MODERN", "ANCIENT", "HIDDEN",
	"PRACTICAL", "SILENT", "GOLDEN", "BROKEN", "ETERNAL", "GARDEN",
	"JOURNEY", "SHADOW", "RIVER", "MOUNTAIN", "WINTER", "SUMMER", "CITY",
	"HOUSE", "ROAD", "STORY", "ART", "SCIENCE", "HISTORY", "GUIDE",
	"WORLD", "NIGHT", "MORNING", "EMPIRE", "ISLAND", "LETTERS", "DREAMS",
}

func authorCount(cfg PopulateConfig) int {
	n := cfg.Items / 4
	if n < 1 {
		n = 1
	}
	return n
}

func populateAuthors(c *sqldb.Conn, rng *rand.Rand, cfg PopulateConfig) error {
	n := authorCount(cfg)
	for i := 1; i <= n; i++ {
		if _, err := c.Exec(
			"INSERT INTO author (a_id, a_fname, a_lname, a_bio) VALUES (?, ?, ?, ?)",
			i,
			firstNames[rng.Intn(len(firstNames))],
			lastNames[rng.Intn(len(lastNames))],
			randomWords(rng, 20),
		); err != nil {
			return fmt.Errorf("tpcw: author %d: %w", i, err)
		}
	}
	return nil
}

func populateItems(c *sqldb.Conn, rng *rand.Rand, cfg PopulateConfig) error {
	authors := authorCount(cfg)
	for i := 1; i <= cfg.Items; i++ {
		srp := 1 + rng.Float64()*99
		cost := srp * (0.5 + rng.Float64()*0.5)
		pub := baseDate.AddDate(0, 0, -rng.Intn(3650))
		if _, err := c.Exec(
			`INSERT INTO item (i_id, i_title, i_a_id, i_pub_date, i_subject, i_desc,
			 i_thumbnail, i_image, i_srp, i_cost, i_avail, i_stock,
			 i_related1, i_related2, i_related3, i_related4, i_related5)
			 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			i,
			randomTitle(rng, i),
			1+rng.Intn(authors),
			pub,
			Subjects[rng.Intn(len(Subjects))],
			randomWords(rng, 30),
			fmt.Sprintf("/img/thumb_%d.gif", i%100),
			fmt.Sprintf("/img/image_%d.gif", i%100),
			round2(srp),
			round2(cost),
			pub.AddDate(0, 0, rng.Intn(30)),
			10+rng.Intn(20),
			related(rng, cfg.Items), related(rng, cfg.Items), related(rng, cfg.Items),
			related(rng, cfg.Items), related(rng, cfg.Items),
		); err != nil {
			return fmt.Errorf("tpcw: item %d: %w", i, err)
		}
	}
	return nil
}

func populateAddresses(c *sqldb.Conn, rng *rand.Rand, cfg PopulateConfig) error {
	n := cfg.Customers * 2
	for i := 1; i <= n; i++ {
		if _, err := c.Exec(
			"INSERT INTO address (addr_id, addr_street1, addr_city, addr_state, addr_zip, addr_co_id) VALUES (?, ?, ?, ?, ?, ?)",
			i,
			fmt.Sprintf("%d %s St", 1+rng.Intn(999), titleWords[rng.Intn(len(titleWords))]),
			lastNames[rng.Intn(len(lastNames))]+"ville",
			"ST",
			fmt.Sprintf("%05d", rng.Intn(100000)),
			1+rng.Intn(len(countryNames)),
		); err != nil {
			return fmt.Errorf("tpcw: address %d: %w", i, err)
		}
	}
	return nil
}

func populateCustomers(c *sqldb.Conn, rng *rand.Rand, cfg PopulateConfig, owns func(int) bool) error {
	for i := 1; i <= cfg.Customers; i++ {
		// Draw every random value unconditionally (in the argument order of
		// the unsharded insert) so a shard that skips this customer leaves
		// the rng stream — and therefore every later row — unchanged.
		fname := firstNames[rng.Intn(len(firstNames))]
		lname := lastNames[rng.Intn(len(lastNames))]
		since := baseDate.AddDate(0, 0, -rng.Intn(730))
		discount := round2(rng.Float64() * 0.5)
		addrID := 1 + rng.Intn(cfg.Customers*2)
		if owns != nil && !owns(i) {
			continue
		}
		if _, err := c.Exec(
			`INSERT INTO customer (c_id, c_uname, c_passwd, c_fname, c_lname, c_email,
			 c_since, c_discount, c_addr_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`,
			i,
			Uname(i),
			fmt.Sprintf("pw%d", i),
			fname,
			lname,
			fmt.Sprintf("%s@example.com", Uname(i)),
			since,
			discount,
			addrID,
		); err != nil {
			return fmt.Errorf("tpcw: customer %d: %w", i, err)
		}
	}
	return nil
}

// populateOrders loads the orders of the customers owns keeps, with
// their lines and card transactions, and returns the number of order
// lines in the full dataset.
func populateOrders(c *sqldb.Conn, rng *rand.Rand, cfg PopulateConfig, owns func(int) bool) (int, error) {
	olID := 0
	for o := 1; o <= cfg.Orders; o++ {
		cust := 1 + rng.Intn(cfg.Customers)
		date := baseDate.AddDate(0, 0, -rng.Intn(60))
		nLines := 1 + rng.Intn(5)
		// Orders partition with their owning customer. As in
		// populateCustomers, every random draw below happens whether or not
		// this shard keeps the rows, and olID advances globally, so ids and
		// values match the unsharded dataset exactly.
		keep := owns == nil || owns(cust)
		subTotal := 0.0
		for l := 0; l < nLines; l++ {
			olID++
			qty := 1 + rng.Intn(3)
			item := 1 + rng.Intn(cfg.Items)
			discount := round2(rng.Float64() * 0.1)
			comments := randomWords(rng, 5)
			if keep {
				if _, err := c.Exec(
					"INSERT INTO order_line (ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments) VALUES (?, ?, ?, ?, ?, ?)",
					olID, o, item, qty, discount, comments,
				); err != nil {
					return 0, fmt.Errorf("tpcw: order line %d: %w", olID, err)
				}
			}
			subTotal += float64(qty) * (1 + rng.Float64()*99)
		}
		total := round2(subTotal * 1.0825)
		shipType := shipTypes[rng.Intn(len(shipTypes))]
		shipDate := date.AddDate(0, 0, 1+rng.Intn(7))
		billAddr := 1 + rng.Intn(cfg.Customers*2)
		shipAddr := 1 + rng.Intn(cfg.Customers*2)
		status := orderStatus[rng.Intn(len(orderStatus))]
		if keep {
			if _, err := c.Exec(
				`INSERT INTO orders (o_id, o_c_id, o_date, o_sub_total, o_total, o_ship_type,
				 o_ship_date, o_bill_addr_id, o_ship_addr_id, o_status)
				 VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`,
				o, cust, date, round2(subTotal), total,
				shipType, shipDate, billAddr, shipAddr, status,
			); err != nil {
				return 0, fmt.Errorf("tpcw: order %d: %w", o, err)
			}
		}
		ccType := ccTypes[rng.Intn(len(ccTypes))]
		ccNum := fmt.Sprintf("%016d", rng.Int63n(1e15))
		ccName := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
		ccCo := 1 + rng.Intn(len(countryNames))
		if keep {
			if _, err := c.Exec(
				"INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, cx_expire, cx_xact_amt, cx_xact_date, cx_co_id) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
				o, ccType, ccNum, ccName,
				date.AddDate(2, 0, 0), total, date, ccCo,
			); err != nil {
				return 0, fmt.Errorf("tpcw: cc_xact %d: %w", o, err)
			}
		}
	}
	return olID, nil
}

var (
	shipTypes   = []string{"AIR", "UPS", "FEDEX", "SHIP", "COURIER", "MAIL"}
	orderStatus = []string{"PROCESSING", "SHIPPED", "PENDING", "DENIED"}
	ccTypes     = []string{"VISA", "MASTERCARD", "DISCOVER", "AMEX", "DINERS"}
)

// Uname returns the deterministic username for a customer id, so the
// workload generator can log in without scanning.
func Uname(cID int) string { return fmt.Sprintf("user%d", cID) }

// randomTitle is two to four random title words followed by " #id".
func randomTitle(rng *rand.Rand, id int) string {
	var suffix [24]byte
	return randomPhrase(rng, 2+rng.Intn(3), strconv.AppendInt(append(suffix[:0], " #"...), int64(id), 10))
}

// randomWords is n random title words.
func randomWords(rng *rand.Rand, n int) string { return randomPhrase(rng, n, nil) }

// randomPhrase draws n title words and returns them joined by spaces and
// followed by suffix, built once at its exact size: a stored string keeps
// no spare capacity, and a phrase costs one allocation, not one per word.
func randomPhrase(rng *rand.Rand, n int, suffix []byte) string {
	var picked [32]string
	words := picked[:0]
	size := len(suffix) + max(n-1, 0)
	for range n {
		w := titleWords[rng.Intn(len(titleWords))]
		words = append(words, w)
		size += len(w)
	}
	var b strings.Builder
	b.Grow(size)
	for i, w := range words {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w)
	}
	b.Write(suffix)
	return b.String()
}

func related(rng *rand.Rand, items int) int { return 1 + rng.Intn(items) }

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }
