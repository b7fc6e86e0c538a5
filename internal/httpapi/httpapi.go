// Package httpapi exposes the home server to interface devices — the touch
// panels, PDAs and set-top boxes of the paper's Fig. 2 — as a small JSON/HTTP
// API. Rule, user, priority, log and export operations are the fleet API
// (internal/fleet) mounted for the server's one home under
// /fleet/homes/{cadel.HomeID}/, so a client written for a fleet node works
// unchanged against a home server. Only the two routes that need the UPnP
// control point are served here:
//
//	GET /api/devices                  discovered devices
//	GET /api/lookup  ?keyword=&sensor=&name=&location=&verb=&word=
//
// Other homes, the fleet-wide routes (/fleet/homes, /fleet/stats,
// /fleet/compact, /metrics) and event injection (POST .../events) answer
// 404: a home server's events come from its UPnP subscriptions, and it never
// creates a second home.
package httpapi

import (
	"encoding/json"
	"net/http"

	cadel "repro"
	"repro/internal/fleet"
)

// Handler serves the JSON API for one home server.
type Handler struct {
	srv *cadel.Server
	mux *http.ServeMux
}

// New builds the API handler.
func New(srv *cadel.Server) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /api/devices", h.getDevices)
	h.mux.HandleFunc("GET /api/lookup", h.getLookup)
	h.mux.Handle("/fleet/homes/"+cadel.HomeID+"/",
		fleet.NewHTTPHandler(srv.Hub(), fleet.WithEventSink(http.NotFoundHandler())))
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ---- devices & lookup ----

type deviceBody struct {
	UDN      string   `json:"udn"`
	Name     string   `json:"name"`
	Type     string   `json:"type"`
	Location string   `json:"location,omitempty"`
	Verbs    []string `json:"verbs,omitempty"`
	Words    []string `json:"words,omitempty"`
}

func (h *Handler) deviceBody(d *cadel.RemoteDevice) deviceBody {
	return deviceBody{
		UDN:      d.UDN,
		Name:     d.FriendlyName,
		Type:     d.DeviceType,
		Location: d.Location,
		Verbs:    h.srv.AllowedVerbs(d),
		Words:    h.srv.WordsFor(d),
	}
}

func (h *Handler) getDevices(w http.ResponseWriter, _ *http.Request) {
	devices := h.srv.Devices()
	out := make([]deviceBody, 0, len(devices))
	for _, d := range devices {
		out = append(out, h.deviceBody(d))
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *Handler) getLookup(w http.ResponseWriter, r *http.Request) {
	q := cadel.Query{
		Keyword:    r.URL.Query().Get("keyword"),
		SensorType: r.URL.Query().Get("sensor"),
		Name:       r.URL.Query().Get("name"),
		Location:   r.URL.Query().Get("location"),
		Verb:       r.URL.Query().Get("verb"),
		Word:       r.URL.Query().Get("word"),
	}
	found := h.srv.Find(q)
	out := make([]deviceBody, 0, len(found))
	for _, d := range found {
		out = append(out, h.deviceBody(d))
	}
	writeJSON(w, http.StatusOK, out)
}
