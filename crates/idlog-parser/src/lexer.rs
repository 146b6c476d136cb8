//! Hand-written lexer: a pull iterator over the source text.

use crate::error::{ParseError, ParseResult};
use crate::token::{Pos, Spanned, Token};

/// Tokenize `src` completely, appending a final [`Token::Eof`].
pub fn lex(src: &str) -> ParseResult<Vec<Spanned<'_>>> {
    Lexer::new(src).collect()
}

/// The lexer. [`Lexer::next_token`] scans one token on demand; as an
/// [`Iterator`] it yields every token up to and including [`Token::Eof`]
/// (or the first error) and then ends. Cloning saves the position, so a
/// caller can look ahead and rewind.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    at: usize,
    pos: Pos,
    /// The iterator has yielded `Eof` or an error.
    done: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            at: 0,
            pos: Pos { line: 1, col: 1 },
            done: false,
        }
    }

    fn peek(&self) -> Option<char> {
        let b = *self.src.as_bytes().get(self.at)?;
        if b.is_ascii() {
            Some(b as char)
        } else {
            self.src[self.at..].chars().next()
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.at += c.len_utf8();
        if c == '\n' {
            self.pos.line += 1;
            self.pos.col = 1;
        } else {
            self.pos.col += 1;
        }
        Some(c)
    }

    /// Scan the next token. At the end of the input this is [`Token::Eof`],
    /// again on every further call.
    pub fn next_token(&mut self) -> ParseResult<Spanned<'a>> {
        // Skip whitespace and `%` line comments.
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('%') => {
                    while let Some(c) = self.bump() {
                        if c == '\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
        let start = self.pos;
        let Some(c) = self.peek() else {
            return Ok(Spanned {
                token: Token::Eof,
                pos: start,
                end: start,
            });
        };
        let token = match c {
            '(' => self.single(Token::LParen),
            ')' => self.single(Token::RParen),
            '[' => self.single(Token::LBracket),
            ']' => self.single(Token::RBracket),
            ',' => self.single(Token::Comma),
            '.' => self.single(Token::Dot),
            '&' => self.single(Token::Amp),
            '|' => self.single(Token::Pipe),
            '=' => self.single(Token::Eq),
            '<' => self.one_or_two(Token::Lt, Token::Le),
            '>' => self.one_or_two(Token::Gt, Token::Ge),
            '!' => self.one_or_two(Token::Cut, Token::Ne),
            ':' => {
                self.bump();
                if self.peek() == Some('-') {
                    self.bump();
                    Token::Implies
                } else {
                    return Err(ParseError::new(start, "expected `:-`"));
                }
            }
            '\'' => {
                // Quoted atom: '...' may contain anything but a quote.
                self.bump();
                let from = self.at;
                loop {
                    match self.bump() {
                        Some('\'') => break,
                        Some(_) => {}
                        None => return Err(ParseError::new(start, "unterminated quoted atom")),
                    }
                }
                Token::Ident(&self.src[from..self.at - 1])
            }
            c if c.is_ascii_digit() => {
                let mut n: i64 = 0;
                while let Some(digit) = self.peek().and_then(|d| d.to_digit(10)) {
                    self.bump();
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(digit as i64))
                        .ok_or_else(|| ParseError::new(start, "integer literal overflows"))?;
                }
                Token::Int(n)
            }
            c if c.is_alphabetic() || c == '_' => {
                let from = self.at;
                while self
                    .peek()
                    .is_some_and(|ch| ch.is_alphanumeric() || ch == '_')
                {
                    self.bump();
                }
                match &self.src[from..self.at] {
                    "not" => Token::Not,
                    "choice" => Token::Choice,
                    s if c.is_uppercase() || c == '_' => Token::Var(s),
                    s => Token::Ident(s),
                }
            }
            other => {
                return Err(ParseError::new(
                    start,
                    format!("unexpected character {other:?}"),
                ))
            }
        };
        Ok(Spanned {
            token,
            pos: start,
            end: self.pos,
        })
    }

    fn single(&mut self, t: Token<'a>) -> Token<'a> {
        self.bump();
        t
    }

    /// `alone`, or `with_eq` when the next character is `=`.
    fn one_or_two(&mut self, alone: Token<'a>, with_eq: Token<'a>) -> Token<'a> {
        self.bump();
        if self.peek() == Some('=') {
            self.bump();
            with_eq
        } else {
            alone
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = ParseResult<Spanned<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let next = self.next_token();
        self.done = !matches!(
            next,
            Ok(Spanned { token, .. }) if token != Token::Eof
        );
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_a_clause() {
        let ts = tokens("p(X) :- q(X, a), X < 2.");
        assert_eq!(
            ts,
            vec![
                Token::Ident("p"),
                Token::LParen,
                Token::Var("X"),
                Token::RParen,
                Token::Implies,
                Token::Ident("q"),
                Token::LParen,
                Token::Var("X"),
                Token::Comma,
                Token::Ident("a"),
                Token::RParen,
                Token::Comma,
                Token::Var("X"),
                Token::Lt,
                Token::Int(2),
                Token::Dot,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comments_and_whitespace_skipped() {
        let ts = tokens("% hello\n  p. % trailing\n");
        assert_eq!(ts, vec![Token::Ident("p"), Token::Dot, Token::Eof]);
    }

    #[test]
    fn keywords_not_and_choice() {
        let ts = tokens("not choice nothing Notvar");
        assert_eq!(
            ts,
            vec![
                Token::Not,
                Token::Choice,
                Token::Ident("nothing"),
                Token::Var("Notvar"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let ts = tokens("< <= > >= = !=");
        assert_eq!(
            ts,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Eof
            ]
        );
    }

    #[test]
    fn underscore_variables_and_quoted_atoms() {
        let ts = tokens("_x 'Hello World'");
        assert_eq!(
            ts,
            vec![Token::Var("_x"), Token::Ident("Hello World"), Token::Eof]
        );
    }

    #[test]
    fn error_positions_are_reported() {
        let err = lex("p :- q\n  @").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.col, 3);
    }

    #[test]
    fn lone_bang_is_cut() {
        let ts = tokens("p :- q, !.");
        assert!(ts.contains(&Token::Cut));
    }

    #[test]
    fn big_integer_overflow_is_error() {
        assert!(lex("99999999999999999999999999").is_err());
    }

    #[test]
    fn lex_is_the_collected_pull_iterator_positions_included() {
        let src =
            "% header\nemp(ann, 'R & D').\r\n  two(N) :- emp[2](N, _D, T), T <= 2, not x(Ünï_1).\n";
        let mut pulled = Vec::new();
        let mut lexer = Lexer::new(src);
        loop {
            let t = lexer.next_token().unwrap();
            pulled.push(t);
            if t.token == Token::Eof {
                break;
            }
        }
        assert_eq!(lex(src).unwrap(), pulled);
        // Past the end the lexer keeps answering `Eof`; the iterator stops.
        assert_eq!(lexer.next_token().unwrap(), *pulled.last().unwrap());
        assert_eq!(Lexer::new(src).count(), pulled.len());
        // Spot checks: a quoted atom spans its quotes, and line/col follow
        // characters, not bytes.
        let quoted = pulled[4];
        assert_eq!(quoted.token, Token::Ident("R & D"));
        assert_eq!((quoted.pos, quoted.end), (pos(2, 10), pos(2, 17)));
        let var = pulled[pulled.len() - 4];
        assert_eq!(var.token, Token::Var("Ünï_1"));
        assert_eq!((var.pos, var.end), (pos(3, 45), pos(3, 50)));
    }

    #[test]
    fn names_borrow_from_the_source_and_errors_end_the_iterator() {
        let src = "p('a b', Xy) @ q";
        let toks: Vec<_> = Lexer::new(src).collect();
        let Token::Ident(atom) = toks[2].as_ref().unwrap().token else {
            panic!("{toks:?}")
        };
        assert_eq!(atom.as_ptr(), src[3..].as_ptr());
        assert_eq!(toks.len(), 7, "five tokens, `)`, then the error: {toks:?}");
        assert_eq!(toks[6].as_ref().unwrap_err().pos, pos(1, 14));
        assert_eq!(lex(src).unwrap_err(), *toks[6].as_ref().unwrap_err());
    }

    fn pos(line: u32, col: u32) -> Pos {
        Pos { line, col }
    }
}
