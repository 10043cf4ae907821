// Package transparency implements the declarative transparency language the
// paper advocates in §3.3.2: "a declarative high-level language to specify
// fairness rules ... used by requesters to disclose task requirements,
// recruitment criteria, evaluation scheme, and payment schedule. Platform
// designers can use these rules to disclose relevant information ... Rules
// can also be translated into human-readable descriptions ... the
// declarative nature of those rules will allow easy comparison across
// platforms."
//
// The language is a small rule DSL:
//
//	policy "acme" {
//	    disclose requester.hourly_wage to workers always;
//	    disclose requester.rejection_criteria to workers on task_view;
//	    disclose platform.acceptance_ratio to workers when worker.completed >= 10;
//	    disclose worker.performance to requesters when task.reward > 0.5 and worker.consent == "granted";
//	}
//
// The package provides the full pipeline: lexer (this file), parser and AST
// (ast.go, parser.go), static checking against the disclosure catalogue
// (catalogue.go), evaluation against a disclosure context (eval.go),
// rendering to human-readable text (render.go), compliance auditing of
// event traces including Axioms 6 and 7 (compliance.go), and policy
// comparison (compare.go).
package transparency

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind discriminates lexical tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString
	tokNumber
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokSemi
	tokDot
	tokOp // comparison operators: == != <= >= < >
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokSemi:
		return "';'"
	case tokDot:
		return "'.'"
	case tokOp:
		return "operator"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// token is one lexical unit with its source position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// SyntaxError reports a lexical or grammatical problem with a policy source.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("transparency: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer converts policy source to tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	// Skip whitespace and comments (# to end of line).
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case unicode.IsSpace(rune(c)):
			l.advance()
		default:
			goto lexed
		}
	}
lexed:
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.peek()
	switch {
	case c == '{':
		l.advance()
		return token{tokLBrace, "{", line, col}, nil
	case c == '}':
		l.advance()
		return token{tokRBrace, "}", line, col}, nil
	case c == '(':
		l.advance()
		return token{tokLParen, "(", line, col}, nil
	case c == ')':
		l.advance()
		return token{tokRParen, ")", line, col}, nil
	case c == ';':
		l.advance()
		return token{tokSemi, ";", line, col}, nil
	case c == '.':
		l.advance()
		return token{tokDot, ".", line, col}, nil
	case c == '"':
		return l.lexString(line, col)
	case c == '=' || c == '!' || c == '<' || c == '>':
		return l.lexOp(line, col)
	case unicode.IsDigit(rune(c)):
		return l.lexNumber(line, col)
	case unicode.IsLetter(rune(c)) || c == '_':
		return l.lexIdent(line, col)
	default:
		return token{}, l.errf("unexpected character %q", c)
	}
}

func (l *lexer) lexString(line, col int) (token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.pos >= len(l.src) {
			return token{}, l.errf("unterminated string")
		}
		c := l.advance()
		if c == '"' {
			return token{tokString, b.String(), line, col}, nil
		}
		if c == '\\' {
			if l.pos >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			e := l.advance()
			switch e {
			case '"', '\\':
				b.WriteByte(e)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return token{}, l.errf("unknown escape \\%c", e)
			}
			continue
		}
		if c == '\n' {
			return token{}, l.errf("newline in string")
		}
		b.WriteByte(c)
	}
}

func (l *lexer) lexOp(line, col int) (token, error) {
	c := l.advance()
	if l.pos < len(l.src) && l.peek() == '=' {
		l.advance()
		return token{tokOp, string(c) + "=", line, col}, nil
	}
	switch c {
	case '<', '>':
		return token{tokOp, string(c), line, col}, nil
	case '=':
		return token{}, l.errf("single '=' is not an operator; use '=='")
	default: // '!'
		return token{}, l.errf("single '!' is not an operator; use '!='")
	}
}

func (l *lexer) lexNumber(line, col int) (token, error) {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.peek()
		if c == '.' {
			if seenDot {
				break
			}
			// A trailing dot (e.g. "3.") requires a following digit.
			if l.pos+1 >= len(l.src) || !unicode.IsDigit(rune(l.src[l.pos+1])) {
				break
			}
			seenDot = true
			l.advance()
			continue
		}
		if !unicode.IsDigit(rune(c)) {
			break
		}
		l.advance()
	}
	return token{tokNumber, l.src[start:l.pos], line, col}, nil
}

func (l *lexer) lexIdent(line, col int) (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		c := rune(l.peek())
		if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' {
			break
		}
		l.advance()
	}
	return token{tokIdent, l.src[start:l.pos], line, col}, nil
}
