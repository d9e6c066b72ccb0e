package cluster

import (
	"context"
	"net"
	"sync"
	"time"

	"passivelight/internal/rxnet"
)

// JoinConfig tunes an engine's membership loop (Join).
type JoinConfig struct {
	// Backoff paces reconnects to an unreachable router.
	Backoff rxnet.Backoff
	// KeepAlive is the re-hello interval on a healthy connection; the
	// periodic EngineHello doubles as a liveness signal and re-admits
	// the engine if the router evicted it (or restarted) meanwhile.
	// Zero selects 30 s.
	KeepAlive time.Duration
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Join announces an engine to a router and keeps the membership
// alive: it dials routerAddr, sends EngineHello{ID: id, Addr: addr},
// reads the RingUpdate ack, and re-hellos every KeepAlive. Connection
// failures redial with capped exponential backoff, so an engine may
// start before its router, and a router restart (which forgets
// auto-admitted members) heals at the next keepalive. The engine
// keeps serving its chunk-ingest listener throughout — Join is purely
// the control-plane side of self-registration.
//
// The returned stop function tears the loop down and waits for it.
func Join(ctx context.Context, routerAddr, id, addr string, cfg JoinConfig) (stop func(), err error) {
	if cfg.KeepAlive <= 0 {
		cfg.KeepAlive = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	helloBody, err := rxnet.MarshalEngineHello(rxnet.EngineHello{ID: id, Addr: addr})
	if err != nil {
		return nil, err
	}
	jctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		joinLoop(jctx, routerAddr, id, helloBody, cfg)
	}()
	return func() {
		cancel()
		wg.Wait()
	}, nil
}

// joinLoop runs one engine's registration: connect, hello, keepalive,
// reconnect on failure — forever, until the context ends.
func joinLoop(ctx context.Context, routerAddr, id string, helloBody []byte, cfg JoinConfig) {
	attempt := 0
	for {
		if ctx.Err() != nil {
			return
		}
		conn, err := dialJoin(ctx, routerAddr, helloBody, cfg)
		if err != nil {
			attempt++
			delay := cfg.Backoff.Delay(attempt)
			cfg.Logf("cluster: engine %s join %s: %v (retry in %v)", id, routerAddr, err, delay)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return
			}
			continue
		}
		if attempt > 0 {
			cfg.Logf("cluster: engine %s rejoined router %s", id, routerAddr)
		}
		attempt = 0
		err = keepAlive(ctx, conn, helloBody, cfg)
		conn.Close()
		if ctx.Err() != nil {
			return
		}
		cfg.Logf("cluster: engine %s join connection lost: %v", id, err)
	}
}

// dialJoin makes one connection attempt: dial, hello, ring ack.
func dialJoin(ctx context.Context, routerAddr string, helloBody []byte, cfg JoinConfig) (net.Conn, error) {
	var d net.Dialer
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	conn, err := d.DialContext(dctx, "tcp", routerAddr)
	if err != nil {
		return nil, err
	}
	if err := sendHello(conn, helloBody, cfg); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// sendHello writes one EngineHello and consumes the RingUpdate ack,
// which must parse: it comes from another process.
func sendHello(conn net.Conn, helloBody []byte, cfg JoinConfig) error {
	if err := conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	if err := rxnet.WriteFrame(conn, rxnet.FrameEngineHello, helloBody); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	t, body, err := rxnet.ReadFrame(conn)
	if err != nil {
		return err
	}
	if t != rxnet.FrameRingUpdate {
		cfg.Logf("cluster: unexpected join ack frame type %d", t)
		return nil
	}
	_, err = rxnet.UnmarshalRingUpdate(body)
	return err
}

// keepAlive re-hellos on a healthy connection until it fails or the
// context ends.
func keepAlive(ctx context.Context, conn net.Conn, helloBody []byte, cfg JoinConfig) error {
	tick := time.NewTicker(cfg.KeepAlive)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if err := sendHello(conn, helloBody, cfg); err != nil {
				return err
			}
		}
	}
}
