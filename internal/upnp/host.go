package upnp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const serverHeader = "cadel-home/1.0 UPnP/1.0 micro/1.0"

// subscription is one GENA event subscriber of a hosted service.
type subscription struct {
	sid      string
	callback string // callback URL; empty for local (in-process) subscribers
	local    func(vars map[string]string)
	seq      uint64
	expires  time.Time
}

// DeviceHost hosts UPnP devices: it answers SSDP searches over UDP, serves
// description documents, executes control actions and delivers state-change
// events to subscribers over HTTP.
type DeviceHost struct {
	network *Network
	udp     *net.UDPConn
	httpSrv *http.Server
	ln      net.Listener
	client  *http.Client
	baseURL string
	leave   func()

	mu      sync.RWMutex
	devices map[string]*Device         // by UDN
	subs    map[string][]*subscription // by udn + "|" + serviceType

	sidCounter atomic.Uint64
	rng        *rand.Rand // search-response order; the UDP loop's alone
	done       chan struct{}
	wg         sync.WaitGroup
}

// NewDeviceHost starts a device host on loopback and joins the network.
func NewDeviceHost(network *Network) (*DeviceHost, error) {
	udpConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("upnp: host udp listen: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = udpConn.Close()
		return nil, fmt.Errorf("upnp: host http listen: %w", err)
	}

	h := &DeviceHost{
		network: network,
		udp:     udpConn,
		ln:      ln,
		client:  &http.Client{Timeout: 5 * time.Second},
		baseURL: "http://" + ln.Addr().String(),
		devices: make(map[string]*Device),
		subs:    make(map[string][]*subscription),
		rng:     rand.New(rand.NewSource(searchSeed)),
		done:    make(chan struct{}),
	}
	h.leave = network.Join(udpConn.LocalAddr().(*net.UDPAddr))

	mux := http.NewServeMux()
	mux.HandleFunc("/desc/", h.handleDescription)
	mux.HandleFunc("/scpd/", h.handleSCPD)
	mux.HandleFunc("/control/", h.handleControl)
	mux.HandleFunc("/event/", h.handleEvent)
	h.httpSrv = &http.Server{Handler: mux}

	h.wg.Add(2)
	go func() {
		defer h.wg.Done()
		_ = h.httpSrv.Serve(ln)
	}()
	go func() {
		defer h.wg.Done()
		h.udpLoop()
	}()
	return h, nil
}

// BaseURL returns the host's HTTP endpoint.
func (h *DeviceHost) BaseURL() string { return h.baseURL }

// Close announces byebye for all devices and stops the host.
func (h *DeviceHost) Close() error {
	h.mu.RLock()
	for _, d := range h.devices {
		_ = h.network.multicast(h.udp, buildByebye(d.DeviceType, d.usn()))
	}
	h.mu.RUnlock()
	close(h.done)
	h.leave()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = h.httpSrv.Shutdown(ctx)
	err := h.udp.Close()
	h.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// Publish registers a device and multicasts its ssdp:alive announcements.
func (h *DeviceHost) Publish(d *Device) error {
	if d.UDN == "" || d.FriendlyName == "" {
		return errors.New("upnp: device needs UDN and friendly name")
	}
	h.mu.Lock()
	if _, dup := h.devices[d.UDN]; dup {
		h.mu.Unlock()
		return fmt.Errorf("upnp: device %s already published", d.UDN)
	}
	h.devices[d.UDN] = d
	h.mu.Unlock()

	location := h.descURL(d.UDN)
	_ = h.network.multicast(h.udp, buildAlive(TargetRootDevice, d.usn(), location, serverHeader))
	_ = h.network.multicast(h.udp, buildAlive(d.DeviceType, d.usn(), location, serverHeader))
	return nil
}

// Unpublish withdraws a device with a byebye announcement.
func (h *DeviceHost) Unpublish(udn string) error {
	h.mu.Lock()
	d, ok := h.devices[udn]
	if ok {
		delete(h.devices, udn)
		for key := range h.subs {
			if strings.HasPrefix(key, udn+"|") {
				delete(h.subs, key)
			}
		}
	}
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("upnp: device %s not published", udn)
	}
	return h.network.multicast(h.udp, buildByebye(d.DeviceType, d.usn()))
}

// Device returns a hosted device by UDN.
func (h *DeviceHost) Device(udn string) (*Device, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	d, ok := h.devices[udn]
	return d, ok
}

// Devices returns all hosted devices.
func (h *DeviceHost) Devices() []*Device {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Device, 0, len(h.devices))
	for _, d := range h.devices {
		out = append(out, d)
	}
	return out
}

// SetVar updates a state variable and notifies subscribers when the value
// changed and the variable is evented.
func (h *DeviceHost) SetVar(udn, serviceType, varName, value string) error {
	h.mu.RLock()
	d, ok := h.devices[udn]
	h.mu.RUnlock()
	if !ok {
		return fmt.Errorf("upnp: device %s not published", udn)
	}
	svc, ok := d.Service(serviceType)
	if !ok {
		return fmt.Errorf("upnp: device %s has no service %s", udn, serviceType)
	}
	v, ok := svc.Var(varName)
	if !ok {
		return fmt.Errorf("upnp: service %s has no variable %s", serviceType, varName)
	}
	if changed := v.Set(value); changed && v.Evented {
		h.notify(udn, serviceType, map[string]string{varName: value})
	}
	return nil
}

// SubscribeLocal attaches an in-process event subscriber (used by the home
// server when it runs in the same process as the virtual devices). The
// subscriber immediately receives the current values of all evented
// variables, mirroring GENA's initial event.
func (h *DeviceHost) SubscribeLocal(udn, serviceType string, fn func(vars map[string]string)) (cancel func(), err error) {
	h.mu.RLock()
	d, ok := h.devices[udn]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("upnp: device %s not published", udn)
	}
	svc, ok := d.Service(serviceType)
	if !ok {
		return nil, fmt.Errorf("upnp: device %s has no service %s", udn, serviceType)
	}
	sub := &subscription{
		sid:     h.newSID(),
		local:   fn,
		expires: time.Now().Add(24 * time.Hour),
	}
	key := udn + "|" + serviceType
	h.mu.Lock()
	h.subs[key] = append(h.subs[key], sub)
	h.mu.Unlock()

	fn(eventedValues(svc))
	return func() { h.dropSub(key, sub.sid) }, nil
}

func eventedValues(svc *Service) map[string]string {
	vars := make(map[string]string)
	for _, v := range svc.Vars() {
		if v.Evented {
			vars[v.Name] = v.Get()
		}
	}
	return vars
}

func (h *DeviceHost) newSID() string {
	return fmt.Sprintf("uuid:sub-%d", h.sidCounter.Add(1))
}

func (h *DeviceHost) dropSub(key, sid string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	list := h.subs[key]
	for i, s := range list {
		if s.sid == sid {
			h.subs[key] = append(list[:i:i], list[i+1:]...)
			return
		}
	}
}

// notify delivers a property change to every subscriber of the service.
func (h *DeviceHost) notify(udn, serviceType string, vars map[string]string) {
	key := udn + "|" + serviceType
	h.mu.Lock()
	subs := make([]*subscription, 0, len(h.subs[key]))
	now := time.Now()
	kept := h.subs[key][:0]
	for _, s := range h.subs[key] {
		if now.After(s.expires) {
			continue // lapsed subscription
		}
		kept = append(kept, s)
		subs = append(subs, s)
	}
	h.subs[key] = kept
	h.mu.Unlock()

	for _, s := range subs {
		seq := atomic.AddUint64(&s.seq, 1) - 1
		if s.local != nil {
			s.local(vars)
			continue
		}
		s := s
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.postNotify(s, seq, vars)
		}()
	}
}

func (h *DeviceHost) postNotify(s *subscription, seq uint64, vars map[string]string) {
	select {
	case <-h.done:
		return
	default:
	}
	req, err := http.NewRequest("NOTIFY", s.callback, strings.NewReader(string(buildPropertySet(vars))))
	if err != nil {
		return
	}
	req.Header.Set("CONTENT-TYPE", `text/xml; charset="utf-8"`)
	req.Header.Set("NT", "upnp:event")
	req.Header.Set("NTS", "upnp:propchange")
	req.Header.Set("SID", s.sid)
	req.Header.Set("SEQ", strconv.FormatUint(seq, 10))
	resp, err := h.client.Do(req)
	if err != nil {
		return // subscriber unreachable; GENA drops silently
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

func (h *DeviceHost) descURL(udn string) string {
	return h.baseURL + "/desc/" + udn + ".xml"
}

// ---- HTTP handlers ----

func (h *DeviceHost) handleDescription(w http.ResponseWriter, r *http.Request) {
	udn := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/desc/"), ".xml")
	h.mu.RLock()
	d, ok := h.devices[udn]
	h.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	data, err := MarshalDescription(d)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	_, _ = w.Write(data)
}

func (h *DeviceHost) handleSCPD(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/scpd/"), ".xml")
	udn, svcID, ok := strings.Cut(rest, "/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	h.mu.RLock()
	d, found := h.devices[udn]
	h.mu.RUnlock()
	if !found {
		http.NotFound(w, r)
		return
	}
	for _, svc := range d.Services {
		if svc.ID == svcID {
			data, err := MarshalSCPD(svc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
			_, _ = w.Write(data)
			return
		}
	}
	http.NotFound(w, r)
}

func (h *DeviceHost) handleControl(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "control requires POST", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/control/")
	udn, svcID, ok := strings.Cut(rest, "/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	h.mu.RLock()
	d, found := h.devices[udn]
	h.mu.RUnlock()
	if !found {
		http.NotFound(w, r)
		return
	}
	var svc *Service
	for _, s := range d.Services {
		if s.ID == svcID {
			svc = s
			break
		}
	}
	if svc == nil {
		http.NotFound(w, r)
		return
	}
	actionName, args, err := parseSOAP(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	action, ok := svc.ActionByName(actionName)
	if ok && action.Handler == nil {
		ok = false
	}
	if !ok {
		http.Error(w, fmt.Sprintf("unknown action %q", actionName), http.StatusUnauthorized)
		return
	}
	out, err := action.Handler(args)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	_, _ = w.Write(buildSOAP(actionName+"Response", svc.Type, out))
}

func (h *DeviceHost) handleEvent(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/event/")
	udn, svcID, ok := strings.Cut(rest, "/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	h.mu.RLock()
	d, found := h.devices[udn]
	h.mu.RUnlock()
	if !found {
		http.NotFound(w, r)
		return
	}
	var svc *Service
	for _, s := range d.Services {
		if s.ID == svcID {
			svc = s
			break
		}
	}
	if svc == nil {
		http.NotFound(w, r)
		return
	}
	key := udn + "|" + svc.Type

	switch r.Method {
	case "SUBSCRIBE":
		callback := strings.Trim(r.Header.Get("CALLBACK"), "<>")
		if callback == "" {
			http.Error(w, "missing CALLBACK", http.StatusPreconditionFailed)
			return
		}
		sub := &subscription{
			sid:      h.newSID(),
			callback: callback,
			expires:  time.Now().Add(30 * time.Minute),
		}
		h.mu.Lock()
		h.subs[key] = append(h.subs[key], sub)
		h.mu.Unlock()
		w.Header().Set("SID", sub.sid)
		w.Header().Set("TIMEOUT", "Second-1800")
		w.WriteHeader(http.StatusOK)
		// Initial event with current evented state, per GENA.
		vars := eventedValues(svc)
		if len(vars) > 0 {
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				h.postNotify(sub, 0, vars)
			}()
		}
	case "UNSUBSCRIBE":
		sid := r.Header.Get("SID")
		h.dropSub(key, sid)
		w.WriteHeader(http.StatusOK)
	default:
		http.Error(w, "event endpoint requires SUBSCRIBE/UNSUBSCRIBE", http.StatusMethodNotAllowed)
	}
}

// ---- SSDP ----

func (h *DeviceHost) udpLoop() {
	buf := make([]byte, 4096)
	for {
		n, src, err := h.udp.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		msg, err := parseSSDP(buf[:n])
		if err != nil || !msg.isMSearch() {
			continue
		}
		h.respondToSearch(msg.header("ST"), searchMX(msg.header("MX")), src)
	}
}

// Search responses go out in bursts of searchBurst, searchPause apart: a
// host answering for hundreds of devices in one back-to-back burst overruns
// the searcher's socket buffer, and every response lost there is a device
// the searcher does not find.
const (
	searchBurst = 64
	searchPause = time.Millisecond
	searchSeed  = 1 // seeds the order responses go out in
)

// searchMX parses an M-SEARCH's MX header: the seconds over which devices
// may spread their responses. The UPnP Device Architecture caps it at 5; a
// missing or malformed value counts as 1.
func searchMX(v string) time.Duration {
	mx, err := strconv.Atoi(v)
	switch {
	case err != nil || mx < 1:
		mx = 1
	case mx > 5:
		mx = 5
	}
	return time.Duration(mx) * time.Second
}

// respondToSearch unicasts a response for every hosted device matching the
// search target, paced over the search's MX window: the UPnP Device
// Architecture has devices spread their responses by a random delay. The
// matching devices answer in an order drawn from h.rng, searchBurst at a
// time, with searchPause between bursts, shortened if the bursts would
// otherwise outlast mx. It runs on the UDP loop, so one search's responses
// go out before the next search is read.
func (h *DeviceHost) respondToSearch(st string, mx time.Duration, src *net.UDPAddr) {
	h.mu.RLock()
	var resps [][]byte
	for _, d := range h.devices {
		if matchesTarget(d, st) {
			resps = append(resps, buildSearchResponse(st, d.usn(), h.descURL(d.UDN), serverHeader))
		}
	}
	h.mu.RUnlock()
	// Sorted first, so the order depends on the seed alone, not on map order.
	sort.Slice(resps, func(i, j int) bool { return string(resps[i]) < string(resps[j]) })
	h.rng.Shuffle(len(resps), func(i, j int) { resps[i], resps[j] = resps[j], resps[i] })
	pause := searchPause
	if n := time.Duration((len(resps) - 1) / searchBurst); n > 0 && n*pause > mx {
		pause = mx / n // n pauses must fit in the MX window
	}
	for i, resp := range resps {
		if i > 0 && i%searchBurst == 0 {
			select {
			case <-h.done:
				return
			case <-time.After(pause):
			}
		}
		_ = h.network.send(h.udp, resp, src)
	}
}

func matchesTarget(d *Device, st string) bool {
	switch st {
	case TargetAll, TargetRootDevice, "":
		return true
	case d.DeviceType, d.UDN:
		return true
	}
	// Service-type search.
	for _, s := range d.Services {
		if s.Type == st {
			return true
		}
	}
	return false
}
