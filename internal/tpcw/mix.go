package tpcw

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// BrowsingMix is the TPC-W "browsing mix" page frequency distribution
// (WIPSb), the workload used throughout the paper's evaluation. Weights
// are percentages and sum to 100.00.
var BrowsingMix = []PageWeight{
	{PageHome, 29.00},
	{PageNewProducts, 11.00},
	{PageBestSellers, 11.00},
	{PageProductDetail, 21.00},
	{PageSearchRequest, 12.00},
	{PageExecuteSearch, 11.00},
	{PageShoppingCart, 2.00},
	{PageCustomerReg, 0.82},
	{PageBuyRequest, 0.75},
	{PageBuyConfirm, 0.69},
	{PageOrderInquiry, 0.30},
	{PageOrderDisplay, 0.25},
	{PageAdminRequest, 0.10},
	{PageAdminResponse, 0.09},
}

// ShoppingMix is the TPC-W "shopping mix" (WIPS, clause 5.2.3): the
// primary TPC-W metric's blend of product browsing and a substantial
// ordering share. Weights sum to 100.00.
var ShoppingMix = []PageWeight{
	{PageHome, 16.00},
	{PageNewProducts, 5.00},
	{PageBestSellers, 5.00},
	{PageProductDetail, 17.00},
	{PageSearchRequest, 20.00},
	{PageExecuteSearch, 17.00},
	{PageShoppingCart, 11.60},
	{PageCustomerReg, 3.00},
	{PageBuyRequest, 2.60},
	{PageBuyConfirm, 1.20},
	{PageOrderInquiry, 0.75},
	{PageOrderDisplay, 0.66},
	{PageAdminRequest, 0.10},
	{PageAdminResponse, 0.09},
}

// OrderingMix is the TPC-W "ordering mix" (WIPSo): checkout-dominated
// traffic that exercises the write path. Weights sum to 100.00.
var OrderingMix = []PageWeight{
	{PageHome, 9.12},
	{PageNewProducts, 0.46},
	{PageBestSellers, 0.46},
	{PageProductDetail, 12.35},
	{PageSearchRequest, 14.53},
	{PageExecuteSearch, 13.08},
	{PageShoppingCart, 13.53},
	{PageCustomerReg, 12.86},
	{PageBuyRequest, 12.73},
	{PageBuyConfirm, 10.18},
	{PageOrderInquiry, 0.25},
	{PageOrderDisplay, 0.22},
	{PageAdminRequest, 0.12},
	{PageAdminResponse, 0.11},
}

// mixes maps the registered mix names to their weight tables.
var mixes = map[string][]PageWeight{
	"browsing": BrowsingMix,
	"shopping": ShoppingMix,
	"ordering": OrderingMix,
}

// MixNames lists the registered mix names, sorted.
func MixNames() []string {
	names := make([]string, 0, len(mixes))
	for name := range mixes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MixByName builds the named TPC-W mix; the empty name selects the
// browsing mix (the paper's workload).
func MixByName(name string) (*Mix, error) {
	if name == "" {
		name = "browsing"
	}
	weights, ok := mixes[name]
	if !ok {
		return nil, fmt.Errorf("tpcw: unknown mix %q (registered: %s)",
			name, strings.Join(MixNames(), ", "))
	}
	return NewMix(weights), nil
}

// PageWeight is one entry of a page mix.
type PageWeight struct {
	Page   string
	Weight float64
}

// Mix draws pages from a weighted distribution.
type Mix struct {
	pages  []string
	cum    []float64
	total  float64
	weight map[string]float64
}

// NewMix builds a sampler over weights. It panics on an empty or
// non-positive mix — a static configuration error.
func NewMix(weights []PageWeight) *Mix {
	if len(weights) == 0 {
		panic("tpcw: empty page mix")
	}
	m := &Mix{weight: make(map[string]float64, len(weights))}
	for _, w := range weights {
		if w.Weight <= 0 {
			panic("tpcw: non-positive mix weight for " + w.Page)
		}
		m.total += w.Weight
		m.pages = append(m.pages, w.Page)
		m.cum = append(m.cum, m.total)
		m.weight[w.Page] = w.Weight
	}
	return m
}

// Pick draws one page using rng.
func (m *Mix) Pick(rng *rand.Rand) string {
	x := rng.Float64() * m.total
	for i, c := range m.cum {
		if x < c {
			return m.pages[i]
		}
	}
	return m.pages[len(m.pages)-1]
}
