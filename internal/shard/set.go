package shard

import (
	"aqverify/internal/core"
	"aqverify/internal/verify"
)

// Set is a domain-sharded deployment: one built IFMH-tree per sub-box of
// the plan, all signed by the same owner key over the same record table
// (build.Outsource builds one under WithShards or WithPlan).
type Set struct {
	Plan  Plan
	Trees []*core.Tree
}

// NumShards returns the shard count.
func (s *Set) NumShards() int { return len(s.Trees) }

// NumRecords returns the database size (every shard holds the full
// table; the split is over the domain, not the rows).
func (s *Set) NumRecords() int { return s.Trees[0].NumRecords() }

// Mode returns the signing scheme shared by every shard.
func (s *Set) Mode() verify.Mode { return s.Trees[0].Mode() }

// Public returns the parameters the owner publishes for clients — the
// same bundle for every shard, which is what makes sharding transparent
// to verifying clients.
func (s *Set) Public() verify.PublicParams { return s.Trees[0].Public() }

// SignatureCount sums the owner signatures across shards (K for
// one-signature mode, the total subdomain count for multi-signature).
func (s *Set) SignatureCount() int {
	n := 0
	for _, t := range s.Trees {
		n += t.SignatureCount()
	}
	return n
}

// NumSubdomains sums the subdomain (FMH-tree) count across shards.
func (s *Set) NumSubdomains() int {
	n := 0
	for _, t := range s.Trees {
		n += t.NumSubdomains()
	}
	return n
}
