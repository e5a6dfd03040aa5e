package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"irisnet/internal/fragment"
	"irisnet/internal/naming"
	"irisnet/internal/service"
	"irisnet/internal/site"
	"irisnet/internal/transport"
	"irisnet/internal/workload"
)

// cpuSlots matches deploy.StartSite: real sites serve four messages at once.
const cpuSlots = 4

// Cluster is the paper's Architecture 4 hierarchy (root, one site per city,
// one per neighborhood) serving the PaperSmall database over one loopback
// TCPNet, built from the same public constructors irisnet.New uses.
type Cluster struct {
	Spec     Spec
	DB       *workload.DB
	Net      *transport.TCPNet
	Registry *naming.Registry
	Store    *countingStore
	Sites    []*site.Site
	Rec      *Recorder // nil on untraced runs
	DataDir  string

	resolvers []*naming.Client
}

// assignment places the hierarchy: each city and each neighborhood on a
// site of its own, everything above on the root site.
func assignment(db *workload.DB) *fragment.Assignment {
	a := fragment.NewAssignment("root-site")
	for c := 0; c < db.Cfg.Cities; c++ {
		a.Assign(db.CityPath(c), fmt.Sprintf("city-site-%d", c))
		for n := 0; n < db.Cfg.Neighborhoods; n++ {
			a.Assign(db.NeighborhoodPath(c, n), fmt.Sprintf("nb-site-%d-%d", c, n))
		}
	}
	return a
}

// checkNoSyntheticCosts refuses a site configuration that would make the
// benchmark time sleeps instead of the engine.
func checkNoSyntheticCosts(cfg site.Config) error {
	if cfg.QueryWork != 0 || cfg.PerNodeWork != 0 || cfg.UpdateWork != 0 {
		return fmt.Errorf("site %s carries synthetic costs (QueryWork=%v PerNodeWork=%v UpdateWork=%v)",
			cfg.Name, cfg.QueryWork, cfg.PerNodeWork, cfg.UpdateWork)
	}
	if _, sim := cfg.Net.(*transport.SimNet); sim {
		return fmt.Errorf("site %s runs on SimNet, not TCP", cfg.Name)
	}
	if cfg.CPUSlots != cpuSlots {
		return fmt.Errorf("site %s has %d CPU slots, want %d", cfg.Name, cfg.CPUSlots, cpuSlots)
	}
	return nil
}

// newCluster partitions the database, starts every site on loopback TCP
// and registers the names. dataRoot is where durable sites keep their
// logs; rec, when non-nil, wraps every site's and client's transport.
func newCluster(spec Spec, db *workload.DB, dataRoot string, rec *Recorder) (*Cluster, error) {
	assign := assignment(db)
	stores, owned, err := fragment.Partition(db.Doc, assign)
	if err != nil {
		return nil, err
	}
	names := assign.Sites()
	addrs := map[string]string{}
	for _, n := range names {
		addrs[n] = "127.0.0.1:0"
	}
	c := &Cluster{
		Spec:     spec,
		DB:       db,
		Net:      transport.NewTCPNet(addrs),
		Registry: naming.NewRegistry(),
		Rec:      rec,
	}
	c.Store = &countingStore{inner: c.Registry}
	if spec.Durable {
		if c.DataDir, err = os.MkdirTemp(dataRoot, "sites-"); err != nil {
			return nil, err
		}
	}
	for _, name := range names {
		cfg := site.Config{
			Name:     name,
			Service:  workload.Service,
			Net:      c.network(name),
			DNS:      c.resolver(),
			Registry: c.Registry,
			Schema:   db.Schema,
			Caching:  spec.Caching,
			CPUSlots: cpuSlots,

			CacheBudgetBytes: spec.CacheBudget,
		}
		if spec.Durable {
			cfg.DataDir = filepath.Join(c.DataDir, name)
			cfg.FsyncInterval = fsyncInterval
			cfg.CheckpointInterval = checkpointEvery
		}
		if err := checkNoSyntheticCosts(cfg); err != nil {
			c.Close()
			return nil, err
		}
		s := site.New(cfg, workload.RootName, workload.RootID)
		if _, err := s.Recover(stores[name], owned[name]); err != nil {
			c.Close()
			return nil, err
		}
		if err := s.Start(); err != nil {
			c.Close()
			return nil, err
		}
		c.Sites = append(c.Sites, s)
	}
	c.Registry.RegisterSubtree(db.Doc, workload.Service, assign.OwnerOf)
	return c, nil
}

// network is the transport a site or client (name "") uses.
func (c *Cluster) network(name string) transport.Network {
	if c.Rec == nil {
		return c.Net
	}
	return &tracedNet{inner: c.Net, site: name, rec: c.Rec}
}

// resolver is a DNS client over the counting registry wrapper.
func (c *Cluster) resolver() *naming.Client {
	r := naming.NewClient(c.Store, workload.Service, time.Hour, nil)
	c.resolvers = append(c.resolvers, r)
	return r
}

// NewFrontend builds one client's frontend.
func (c *Cluster) NewFrontend() *service.Frontend {
	f := service.NewFrontend(c.network(""), c.resolver())
	f.Timeout = queryTimeout
	return f
}

// ResolverStats sums the DNS clients' cache hits and misses.
func (c *Cluster) ResolverStats() (hits, misses int64) {
	for _, r := range c.resolvers {
		h, m := r.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// CacheBytes sums the sites' accounted cached bytes.
func (c *Cluster) CacheBytes() int64 {
	var b int64
	for _, s := range c.Sites {
		b += int64(s.CacheBytes())
	}
	return b
}

// Close stops every site, closes the sockets and removes the data dir.
func (c *Cluster) Close() {
	for _, s := range c.Sites {
		s.Stop()
	}
	c.Net.Close()
	if c.DataDir != "" {
		os.RemoveAll(c.DataDir)
	}
}
