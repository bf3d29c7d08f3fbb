package main

import (
	"fmt"
	"net"
	"sync"

	"decorum/internal/blockdev"
	"decorum/internal/client"
	"decorum/internal/episode"
	"decorum/internal/fs"
	"decorum/internal/obs"
	"decorum/internal/server"
	"decorum/internal/vfs"
)

const (
	cellAddr     = "cell0:7000"
	devBlockSize = 4096
)

// cell is one file server on a freshly formatted Episode aggregate and
// two cache managers over in-process pipes, all in the production
// configuration: binary lane, verification and byte-range tokens on, no
// simulated latency, no auth, diskless caches, FlushInterval 0 and the
// default Episode flush policy. Every component gets its own registry:
// AttachCounter replaces by name, so a shared one would keep only the
// last client's client.* counters and mix both directions' rpc.* counts.
type cell struct {
	tr     *tracer
	dev    devStats
	ep     *epStats
	conns  [2]connStats // [0] client-side writes, [1] server-side writes
	agg    *episode.Aggregate
	srv    *server.Server
	srvReg *obs.Registry

	cl    [2]*client.Client
	regs  [2]*obs.Registry
	roots [2]vfs.Vnode
	// hists holds every histogram of regs[0], regs[1] and srvReg, by
	// name, resolved once the cell is up.
	hists [3]map[string]*obs.Histogram

	mu   sync.Mutex
	side []net.Conn // guarded by mu; server ends of every association
}

// newCell formats mem and brings the cell up on it.
func newCell(tr *tracer, mem *blockdev.MemDevice) (*cell, error) {
	c := &cell{tr: tr, ep: newEpStats(), srvReg: obs.NewRegistry()}
	dev := &tapDev{Device: mem, tr: tr, st: &c.dev}
	agg, err := episode.Format(dev, episode.Options{})
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	c.agg = agg
	vol, err := agg.CreateVolume("user.bench", 0)
	if err != nil {
		agg.Close()
		return nil, fmt.Errorf("create volume: %w", err)
	}
	ops := &tapAgg{VolumeOps: agg, tr: tr, st: c.ep}
	c.srv = server.New(server.Options{Name: cellAddr, Obs: c.srvReg}, ops)
	locate := client.NewStaticLocator()
	locate.Add(vol.ID, vol.Name, cellAddr)
	for i := range c.cl {
		c.regs[i] = obs.NewRegistry()
		cl, err := client.New(client.Options{
			Name:   fmt.Sprintf("ws%d", i),
			User:   fs.SuperUser,
			Dial:   c.dial,
			Locate: locate,
			Obs:    c.regs[i],
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.cl[i] = cl
		fsys, err := cl.MountVolume(vol.ID)
		if err == nil {
			c.roots[i], err = fsys.Root()
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("mount on client %d: %w", i, err)
		}
	}
	for i, reg := range []*obs.Registry{c.regs[0], c.regs[1], c.srvReg} {
		c.hists[i] = make(map[string]*obs.Histogram)
		for name := range reg.Snapshot().Histograms {
			c.hists[i][name] = reg.Histogram(name)
		}
	}
	return c, nil
}

func (c *cell) dial(addr string) (net.Conn, error) {
	if addr != cellAddr {
		return nil, fmt.Errorf("no such server %q", addr)
	}
	cs, ss := net.Pipe()
	c.mu.Lock()
	c.side = append(c.side, ss)
	c.mu.Unlock()
	c.srv.Attach(&tapConn{Conn: ss, tr: c.tr, st: &c.conns[1]})
	return &tapConn{Conn: cs, tr: c.tr, st: &c.conns[0]}, nil
}

// close tears the cell down: clients first, then the server ends of the
// pipes (which stops the server's read loops), then the aggregate and
// its checkpoint daemon.
func (c *cell) close() error {
	for _, cl := range c.cl {
		if cl != nil {
			cl.Close()
		}
	}
	c.mu.Lock()
	side := c.side
	c.side = nil
	c.mu.Unlock()
	for _, nc := range side {
		nc.Close()
	}
	return c.agg.Close()
}
