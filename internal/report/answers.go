package report

import (
	"bytes"
	"encoding/json"
	"fmt"

	"avfda/internal/core"
)

// Answer is one parameterless response, rendered once per study: the
// status, content type and identity body avserve sends for it. The v2
// study snapshot stores every Answer of its study (internal/snapshot2), so
// serving one costs a copy.
type Answer struct {
	Status      int
	ContentType string
	Body        []byte
}

// The statuses and content types an Answer carries.
const (
	StatusOK    = 200
	StatusError = 500

	ContentJSON = "application/json"
	ContentText = "text/plain; charset=utf-8"
)

// AnswerKeys names the answers Answers renders, in its order: the
// metrics/reliability body, then each served paper table by its lower-case
// id. Table II (sample NLP assignments) needs per-run sample rows and is
// not served.
var AnswerKeys = [...]string{"reliability", "i", "iii", "iv", "v", "vi", "vii", "viii"}

// Answers renders every answer of AnswerKeys from a study's summary, in
// that order. The reliability body is the JSON of
// core.ReliabilityResponse; a table is its plain text. A render that fails
// is the 500 JSON error envelope avserve answers with, so a stored study
// never needs its database to answer.
func Answers(x *core.Exposure) []Answer {
	out := make([]Answer, 0, len(AnswerKeys))
	if body, err := reliabilityBody(x); err != nil {
		out = append(out, errorAnswer("reliability: %v", err))
	} else {
		out = append(out, Answer{StatusOK, ContentJSON, body})
	}
	for _, id := range AnswerKeys[1:] {
		var text string
		var err error
		switch id {
		case "i":
			text = tableI(x)
		case "iii":
			text = TableIII()
		case "iv":
			text = tableIV(x)
		case "v":
			text = tableV(x)
		case "vi":
			text = tableVI(x)
		case "vii":
			text, err = tableVII(x)
		case "viii":
			text, err = tableVIII(x)
		}
		if err != nil {
			out = append(out, errorAnswer("render table %s: %v", id, err))
			continue
		}
		out = append(out, Answer{StatusOK, ContentText, []byte(text)})
	}
	return out
}

// reliabilityBody renders the metrics/reliability JSON from the study's
// exposure summary.
func reliabilityBody(x *core.Exposure) ([]byte, error) {
	rows, err := core.Reliability(x)
	if err != nil {
		return nil, err
	}
	return encodeJSON(core.ReliabilityResponse{Manufacturers: rows})
}

// errorAnswer is the 500 answer whose body is avserve's JSON error
// envelope, {"error": message}.
func errorAnswer(format string, args ...any) Answer {
	// A struct of one string always encodes.
	body, _ := encodeJSON(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
	return Answer{StatusError, ContentJSON, body}
}

// encodeJSON encodes v as avserve writes every JSON body: HTML characters
// unescaped, one trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return b.Bytes(), err
}
