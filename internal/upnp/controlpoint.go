package upnp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RemoteService describes one service of a discovered device.
type RemoteService struct {
	ServiceType string
	ServiceID   string
	ControlURL  string
	EventSubURL string
	SCPDURL     string
}

// RemoteDevice is a discovered device: the parsed description document plus
// the base URL it was fetched from.
type RemoteDevice struct {
	UDN          string
	DeviceType   string
	FriendlyName string
	Location     string // room hint
	BaseURL      string
	Services     []RemoteService
}

// Service returns the remote service with the given type.
func (rd *RemoteDevice) Service(serviceType string) (RemoteService, bool) {
	for _, s := range rd.Services {
		if s.ServiceType == serviceType {
			return s, true
		}
	}
	return RemoteService{}, false
}

// ErrNotFound reports that discovery did not find a matching device in time.
var ErrNotFound = errors.New("upnp: device not found")

// EventHandler receives state-variable change notifications.
type EventHandler func(vars map[string]string)

type cpSubscription struct {
	sid     string
	handler EventHandler
}

// ControlPoint discovers devices over SSDP, invokes their actions and
// subscribes to their events — the home server's window onto the appliance
// network.
type ControlPoint struct {
	network *Network
	udp     *net.UDPConn
	client  *http.Client
	httpSrv *http.Server
	ln      net.Listener
	leave   func()

	mu      sync.RWMutex
	devices map[string]*RemoteDevice // by UDN
	changed chan struct{}            // closed & replaced on each table change
	subs    map[string]*cpSubscription

	sidSeq atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewControlPoint starts a control point on loopback and joins the network.
func NewControlPoint(network *Network) (*ControlPoint, error) {
	udpConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("upnp: control point udp listen: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = udpConn.Close()
		return nil, fmt.Errorf("upnp: control point http listen: %w", err)
	}
	cp := &ControlPoint{
		network: network,
		udp:     udpConn,
		client:  &http.Client{Timeout: 5 * time.Second},
		ln:      ln,
		devices: make(map[string]*RemoteDevice),
		changed: make(chan struct{}),
		subs:    make(map[string]*cpSubscription),
		done:    make(chan struct{}),
	}
	cp.leave = network.Join(udpConn.LocalAddr().(*net.UDPAddr))

	mux := http.NewServeMux()
	mux.HandleFunc("/callback/", cp.handleNotify)
	cp.httpSrv = &http.Server{Handler: mux}

	cp.wg.Add(2)
	go func() {
		defer cp.wg.Done()
		_ = cp.httpSrv.Serve(ln)
	}()
	go func() {
		defer cp.wg.Done()
		cp.udpLoop()
	}()
	return cp, nil
}

// Close stops the control point.
func (cp *ControlPoint) Close() error {
	close(cp.done)
	cp.leave()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = cp.httpSrv.Shutdown(ctx)
	err := cp.udp.Close()
	cp.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// Devices returns the currently known devices.
func (cp *ControlPoint) Devices() []*RemoteDevice {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	out := make([]*RemoteDevice, 0, len(cp.devices))
	for _, d := range cp.devices {
		out = append(out, d)
	}
	return out
}

// DeviceByUDN returns a known device.
func (cp *ControlPoint) DeviceByUDN(udn string) (*RemoteDevice, bool) {
	cp.mu.RLock()
	defer cp.mu.RUnlock()
	d, ok := cp.devices[udn]
	return d, ok
}

// Search multicasts an M-SEARCH for the target and waits the full window,
// returning every device known afterwards. This is the paper's device
// retrieval primitive.
func (cp *ControlPoint) Search(target string, window time.Duration) []*RemoteDevice {
	_ = cp.network.multicast(cp.udp, buildMSearch(target, 1))
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	for {
		cp.mu.RLock()
		ch := cp.changed
		cp.mu.RUnlock()
		select {
		case <-deadline.C:
			return cp.Devices()
		case <-ch:
			// Table changed; keep collecting until the window closes.
		case <-cp.done:
			return cp.Devices()
		}
	}
}

// FindByName retrieves a device by friendly name (experiment E1a). The cache
// is consulted first; on a miss an M-SEARCH is issued and the call waits up
// to window for the device to appear.
func (cp *ControlPoint) FindByName(name string, window time.Duration) (*RemoteDevice, error) {
	match := func() *RemoteDevice {
		cp.mu.RLock()
		defer cp.mu.RUnlock()
		for _, d := range cp.devices {
			if d.FriendlyName == name {
				return d
			}
		}
		return nil
	}
	return cp.waitFor(match, TargetAll, window, fmt.Sprintf("name %q", name))
}

// FindByType retrieves the first device of the given device type.
func (cp *ControlPoint) FindByType(deviceType string, window time.Duration) (*RemoteDevice, error) {
	match := func() *RemoteDevice {
		cp.mu.RLock()
		defer cp.mu.RUnlock()
		for _, d := range cp.devices {
			if d.DeviceType == deviceType {
				return d
			}
		}
		return nil
	}
	return cp.waitFor(match, deviceType, window, fmt.Sprintf("type %q", deviceType))
}

// FindByService retrieves the first device offering the service type
// (experiment E1b).
func (cp *ControlPoint) FindByService(serviceType string, window time.Duration) (*RemoteDevice, error) {
	match := func() *RemoteDevice {
		cp.mu.RLock()
		defer cp.mu.RUnlock()
		for _, d := range cp.devices {
			for _, s := range d.Services {
				if s.ServiceType == serviceType {
					return d
				}
			}
		}
		return nil
	}
	return cp.waitFor(match, serviceType, window, fmt.Sprintf("service %q", serviceType))
}

// searchResend is the wait before a lookup's first repeated M-SEARCH; each
// later repeat waits twice as long as the one before. SSDP runs over UDP,
// and one lost datagram (the search, or the one response that names the
// device) would otherwise lose the device for the whole window, so the UPnP
// Device Architecture advises sending each M-SEARCH more than once.
const searchResend = 100 * time.Millisecond

func (cp *ControlPoint) waitFor(match func() *RemoteDevice, target string, window time.Duration, what string) (*RemoteDevice, error) {
	if d := match(); d != nil {
		return d, nil
	}
	msearch := buildMSearch(target, 1)
	_ = cp.network.multicast(cp.udp, msearch)
	deadline := time.NewTimer(window)
	defer deadline.Stop()
	backoff := searchResend
	resend := time.NewTimer(backoff)
	defer resend.Stop()
	for {
		cp.mu.RLock()
		ch := cp.changed
		cp.mu.RUnlock()
		if d := match(); d != nil {
			return d, nil
		}
		select {
		case <-deadline.C:
			if d := match(); d != nil {
				return d, nil
			}
			return nil, fmt.Errorf("%w: %s", ErrNotFound, what)
		case <-resend.C:
			_ = cp.network.multicast(cp.udp, msearch)
			backoff *= 2
			resend.Reset(backoff)
		case <-ch:
		case <-cp.done:
			return nil, fmt.Errorf("%w: control point closed", ErrNotFound)
		}
	}
}

// Forget drops a device from the cache (e.g. for a forced re-search).
func (cp *ControlPoint) Forget(udn string) {
	cp.mu.Lock()
	delete(cp.devices, udn)
	cp.bumpLocked()
	cp.mu.Unlock()
}

// Invoke calls a control action on a remote device service.
func (cp *ControlPoint) Invoke(rd *RemoteDevice, serviceType, action string, args map[string]string) (map[string]string, error) {
	svc, ok := rd.Service(serviceType)
	if !ok {
		return nil, fmt.Errorf("upnp: device %s has no service %s", rd.FriendlyName, serviceType)
	}
	body := buildSOAP(action, serviceType, args)
	req, err := http.NewRequest(http.MethodPost, rd.BaseURL+svc.ControlURL, strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	req.Header.Set("SOAPACTION", fmt.Sprintf("%q", serviceType+"#"+action))
	resp, err := cp.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("upnp: invoke %s on %s: %w", action, rd.FriendlyName, err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("upnp: invoke %s on %s: HTTP %d: %s",
			action, rd.FriendlyName, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	_, out, err := parseSOAP(resp.Body)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Subscribe registers for events of a remote service. The handler runs on
// the control point's HTTP callback server goroutine.
func (cp *ControlPoint) Subscribe(rd *RemoteDevice, serviceType string, handler EventHandler) (cancel func() error, err error) {
	svc, ok := rd.Service(serviceType)
	if !ok {
		return nil, fmt.Errorf("upnp: device %s has no service %s", rd.FriendlyName, serviceType)
	}
	path := fmt.Sprintf("/callback/%d", cp.sidSeq.Add(1))
	callbackURL := "http://" + cp.ln.Addr().String() + path

	// Register the handler before subscribing: the host's initial event may
	// hit the callback endpoint before the SUBSCRIBE response is processed.
	sub := &cpSubscription{handler: handler}
	cp.mu.Lock()
	cp.subs[path] = sub
	cp.mu.Unlock()

	req, err := http.NewRequest("SUBSCRIBE", rd.BaseURL+svc.EventSubURL, nil)
	if err != nil {
		cp.dropSub(path)
		return nil, err
	}
	req.Header.Set("CALLBACK", "<"+callbackURL+">")
	req.Header.Set("NT", "upnp:event")
	req.Header.Set("TIMEOUT", "Second-1800")
	resp, err := cp.client.Do(req)
	if err != nil {
		cp.dropSub(path)
		return nil, fmt.Errorf("upnp: subscribe to %s: %w", rd.FriendlyName, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		cp.dropSub(path)
		return nil, fmt.Errorf("upnp: subscribe to %s: HTTP %d", rd.FriendlyName, resp.StatusCode)
	}
	sid := resp.Header.Get("SID")
	cp.mu.Lock()
	sub.sid = sid
	cp.mu.Unlock()

	return func() error {
		cp.dropSub(path)
		unreq, err := http.NewRequest("UNSUBSCRIBE", rd.BaseURL+svc.EventSubURL, nil)
		if err != nil {
			return err
		}
		unreq.Header.Set("SID", sid)
		unresp, err := cp.client.Do(unreq)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, unresp.Body)
		return unresp.Body.Close()
	}, nil
}

func (cp *ControlPoint) dropSub(path string) {
	cp.mu.Lock()
	delete(cp.subs, path)
	cp.mu.Unlock()
}

// handleNotify dispatches GENA NOTIFY callbacks to the registered handler.
func (cp *ControlPoint) handleNotify(w http.ResponseWriter, r *http.Request) {
	if r.Method != "NOTIFY" {
		http.Error(w, "expected NOTIFY", http.StatusMethodNotAllowed)
		return
	}
	cp.mu.RLock()
	sub := cp.subs[r.URL.Path]
	cp.mu.RUnlock()
	if sub == nil {
		http.NotFound(w, r)
		return
	}
	vars, err := parsePropertySet(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusOK)
	sub.handler(vars)
}

// ---- SSDP handling ----

func (cp *ControlPoint) udpLoop() {
	buf := make([]byte, 4096)
	for {
		n, _, err := cp.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		msg, err := parseSSDP(buf[:n])
		if err != nil {
			continue
		}
		switch {
		case msg.isResponse():
			cp.handleAliveOrResponse(msg.header("USN"), msg.header("LOCATION"))
		case msg.isNotify():
			switch msg.header("NTS") {
			case ntsAlive:
				cp.handleAliveOrResponse(msg.header("USN"), msg.header("LOCATION"))
			case ntsByebye:
				cp.handleByebye(msg.header("USN"))
			}
		}
	}
}

func (cp *ControlPoint) handleAliveOrResponse(usn, location string) {
	udn, _, _ := strings.Cut(usn, "::")
	if udn == "" || location == "" {
		return
	}
	cp.mu.RLock()
	_, known := cp.devices[udn]
	cp.mu.RUnlock()
	if known {
		return
	}
	rd, err := cp.fetchDescription(location)
	if err != nil {
		return
	}
	cp.mu.Lock()
	cp.devices[rd.UDN] = rd
	cp.bumpLocked()
	cp.mu.Unlock()
}

func (cp *ControlPoint) handleByebye(usn string) {
	udn, _, _ := strings.Cut(usn, "::")
	cp.mu.Lock()
	if _, ok := cp.devices[udn]; ok {
		delete(cp.devices, udn)
		cp.bumpLocked()
	}
	cp.mu.Unlock()
}

// bumpLocked signals table-change waiters. Callers hold cp.mu.
func (cp *ControlPoint) bumpLocked() {
	close(cp.changed)
	cp.changed = make(chan struct{})
}

func (cp *ControlPoint) fetchDescription(location string) (*RemoteDevice, error) {
	resp, err := cp.client.Get(location)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("upnp: fetch description: HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	rd, err := UnmarshalDescription(data)
	if err != nil {
		return nil, err
	}
	base := location
	if i := strings.Index(location, "/desc/"); i > 0 {
		base = location[:i]
	}
	rd.BaseURL = base
	return rd, nil
}
