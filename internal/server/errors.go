package server

import (
	"errors"
	"net/http"
	"strconv"

	"privreg"
	"privreg/internal/wire"
)

// This file is the single verdict mapping both front-ends answer rejections
// through. Every server-side failure classifies to one wire.NackCode; the
// code determines the HTTP status, the machine-readable "code" string in the
// JSON error envelope, and the nack frame on the wire — one taxonomy, two
// encodings, so a client library can switch transports without changing its
// retry logic. The table lives in docs/SERVING.md.

// errorDetail is the structured half of the error envelope.
type errorDetail struct {
	// Code is the machine-readable rejection class, snake_case, mirroring
	// the wire protocol's nack codes one-to-one (wire.NackCode.Code).
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterS is the server's back-off hint in seconds; 0 means none.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// errorBody is the JSON error envelope: {"error": {code, message,
// retry_after_s}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

// verdict is one classified rejection: the shared code, the HTTP status it
// renders as, and the back-off hint (seconds, 0 = none).
type verdict struct {
	code       wire.NackCode
	status     int
	retryAfter int
}

// nackStatus maps a wire nack code onto its HTTP status — the same mapping in
// both directions, so a forwarded rejection re-renders on the HTTP edge with
// the status the owner would have used directly.
func nackStatus(code wire.NackCode) int {
	switch code {
	case wire.NackQueueFull:
		return http.StatusTooManyRequests
	case wire.NackDraining, wire.NackImporting, wire.NackNotOwner:
		return http.StatusServiceUnavailable
	case wire.NackStreamFull, wire.NackConflict:
		return http.StatusConflict
	case wire.NackUnknownStream:
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// classify reduces any server-side rejection to its verdict. Forwarded
// rejections (*wire.NackError) pass through with their original code and
// hint, so a proxied rejection is indistinguishable from a direct one.
func classify(err error) verdict {
	var qf *queueFullError
	var ce *conflictError
	var ne *wire.NackError
	switch {
	case errors.As(err, &qf):
		return verdict{wire.NackQueueFull, http.StatusTooManyRequests, qf.retryAfter}
	case errors.Is(err, errQueueFull):
		return verdict{wire.NackQueueFull, http.StatusTooManyRequests, minRetryAfter}
	case errors.Is(err, errDraining):
		return verdict{wire.NackDraining, http.StatusServiceUnavailable, 0}
	case errors.Is(err, errHandoff), errors.Is(err, errImporting):
		return verdict{wire.NackImporting, http.StatusServiceUnavailable, 1}
	case errors.As(err, &ce), errors.Is(err, errConflict):
		return verdict{wire.NackConflict, http.StatusConflict, 0}
	case errors.Is(err, privreg.ErrStreamFull):
		return verdict{wire.NackStreamFull, http.StatusConflict, 0}
	case errors.Is(err, privreg.ErrUnknownStream):
		return verdict{wire.NackUnknownStream, http.StatusNotFound, 0}
	case errors.As(err, &ne):
		return verdict{ne.Code, nackStatus(ne.Code), ne.RetryAfter}
	default:
		return verdict{wire.NackBadRequest, http.StatusBadRequest, 0}
	}
}

// writeVerdict renders a classified rejection on the HTTP edge: status and
// Retry-After from the verdict, envelope code from the shared taxonomy.
func writeVerdict(w http.ResponseWriter, err error) {
	v := classify(err)
	if v.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(v.retryAfter))
	}
	writeJSON(w, v.status, errorBody{
		Error: errorDetail{Code: v.code.Code(), Message: err.Error(), RetryAfterS: v.retryAfter},
	})
}

// statusCode names an HTTP status for envelope codes on paths that never had
// a wire twin (decode errors, admin surfaces): the envelope still carries a
// stable machine-readable code even where no nack code applies.
func statusCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "unknown_stream"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusNotImplemented:
		return "not_implemented"
	case http.StatusBadGateway:
		return "bad_gateway"
	default:
		return "internal"
	}
}

// writeError renders an error at a caller-chosen status. The envelope code
// comes from the status, not from classify — handlers that know the precise
// verdict use writeVerdict instead.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{
		Error: errorDetail{Code: statusCode(code), Message: err.Error()},
	})
}
