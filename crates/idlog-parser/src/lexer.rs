//! Hand-written lexer: a pull iterator over the source text.
//!
//! Fact files are mostly ASCII, so the lexer reads bytes: layout, ASCII
//! identifiers, integers and punctuation advance the read offset and the
//! column together, one per byte. It decodes a character only where one
//! may be wider than a byte — non-ASCII whitespace or letters, quoted
//! atoms, an unexpected character — and there a column is a character, as
//! everywhere. The test module keeps the character-at-a-time lexer this
//! one replaced, and a property holds the two to the same tokens,
//! positions and errors.

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

    /// The byte at the read position.
    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    /// Step over `n` ASCII characters, none of them a newline.
    fn skip_ascii(&mut self, n: usize) {
        self.at += n;
        self.pos.col += n as u32;
    }

    fn peek(&self) -> Option<char> {
        self.src[self.at..].chars().next()
    }

    /// Step over one character of any width.
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

    /// Skip whitespace and `%` line comments.
    fn skip_layout(&mut self) {
        while let Some(b) = self.byte() {
            match b {
                b'\n' => {
                    self.at += 1;
                    self.pos.line += 1;
                    self.pos.col = 1;
                }
                // The ASCII characters `char::is_whitespace` accepts.
                b'\t' | b'\x0B' | b'\x0C' | b'\r' | b' ' => self.skip_ascii(1),
                b'%' => {
                    let rest = &self.src[self.at..];
                    match rest.find('\n') {
                        Some(len) => {
                            self.at += len + 1;
                            self.pos.line += 1;
                            self.pos.col = 1;
                        }
                        None => {
                            self.at = self.src.len();
                            self.pos.col += rest.chars().count() as u32;
                        }
                    }
                }
                _ if b.is_ascii() => return,
                _ => match self.peek() {
                    Some(c) if c.is_whitespace() => {
                        self.bump();
                    }
                    _ => return,
                },
            }
        }
    }

    /// Scan the next token. At the end of the input this is [`Token::Eof`],
    /// again on every further call.
    pub fn next_token(&mut self) -> ParseResult<Spanned<'a>> {
        self.skip_layout();
        let start = self.pos;
        let Some(b) = self.byte() else {
            return Ok(Spanned {
                token: Token::Eof,
                pos: start,
                end: start,
            });
        };
        let token = match b {
            b'(' => self.single(Token::LParen),
            b')' => self.single(Token::RParen),
            b'[' => self.single(Token::LBracket),
            b']' => self.single(Token::RBracket),
            b',' => self.single(Token::Comma),
            b'.' => self.single(Token::Dot),
            b'&' => self.single(Token::Amp),
            b'|' => self.single(Token::Pipe),
            b'=' => self.single(Token::Eq),
            b'<' => self.one_or_two(Token::Lt, Token::Le),
            b'>' => self.one_or_two(Token::Gt, Token::Ge),
            b'!' => self.one_or_two(Token::Cut, Token::Ne),
            b':' => {
                self.skip_ascii(1);
                if self.byte() == Some(b'-') {
                    self.skip_ascii(1);
                    Token::Implies
                } else {
                    return Err(ParseError::new(start, "expected `:-`"));
                }
            }
            b'\'' => {
                // Quoted atom: '...' may contain anything but a quote.
                self.skip_ascii(1);
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
            b'0'..=b'9' => {
                let mut n: i64 = 0;
                while let Some(digit @ b'0'..=b'9') = self.byte() {
                    self.skip_ascii(1);
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(i64::from(digit - b'0')))
                        .ok_or_else(|| ParseError::new(start, "integer literal overflows"))?;
                }
                Token::Int(n)
            }
            b'a'..=b'z' => self.word(false),
            b'A'..=b'Z' | b'_' => self.word(true),
            _ => match self.peek().expect("a character starts at a byte") {
                c if !c.is_ascii() && c.is_alphabetic() => self.word(c.is_uppercase()),
                other => {
                    return Err(ParseError::new(
                        start,
                        format!("unexpected character {other:?}"),
                    ))
                }
            },
        };
        Ok(Spanned {
            token,
            pos: start,
            end: self.pos,
        })
    }

    /// An identifier, keyword or variable (`var`: its first character is
    /// uppercase or `_`) from the read position: ASCII runs by bytes,
    /// anything else a character at a time.
    fn word(&mut self, var: bool) -> Token<'a> {
        let from = self.at;
        loop {
            let run = self.src.as_bytes()[self.at..]
                .iter()
                .take_while(|b| b.is_ascii_alphanumeric() || **b == b'_')
                .count();
            self.skip_ascii(run);
            match self.peek() {
                Some(c) if !c.is_ascii() && c.is_alphanumeric() => {
                    self.bump();
                }
                _ => break,
            }
        }
        match &self.src[from..self.at] {
            "not" => Token::Not,
            "choice" => Token::Choice,
            s if var => Token::Var(s),
            s => Token::Ident(s),
        }
    }

    fn single(&mut self, t: Token<'a>) -> Token<'a> {
        self.skip_ascii(1);
        t
    }

    /// `alone`, or `with_eq` when the next character is `=`.
    fn one_or_two(&mut self, alone: Token<'a>, with_eq: Token<'a>) -> Token<'a> {
        self.skip_ascii(1);
        if self.byte() == Some(b'=') {
            self.skip_ascii(1);
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
    use proptest::prelude::*;

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

    /// The lexer [`Lexer`] replaced, a character at a time throughout: the
    /// reference the byte-reading lexer is held to.
    mod reference {
        use crate::error::{ParseError, ParseResult};
        use crate::token::{Pos, Spanned, Token};

        pub(super) struct Reference<'a> {
            src: &'a str,
            at: usize,
            pos: Pos,
        }

        /// Every token up to and including `Eof`, or up to the first error.
        pub(super) fn stream(src: &str) -> Vec<ParseResult<Spanned<'_>>> {
            let mut lexer = Reference::new(src);
            let mut out = Vec::new();
            loop {
                let next = lexer.next_token();
                let last = !matches!(next, Ok(Spanned { token, .. }) if token != Token::Eof);
                out.push(next);
                if last {
                    return out;
                }
            }
        }

        impl<'a> Reference<'a> {
            fn new(src: &'a str) -> Self {
                Reference {
                    src,
                    at: 0,
                    pos: Pos { line: 1, col: 1 },
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

            fn next_token(&mut self) -> ParseResult<Spanned<'a>> {
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
                                None => {
                                    return Err(ParseError::new(start, "unterminated quoted atom"))
                                }
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
                                .ok_or_else(|| {
                                    ParseError::new(start, "integer literal overflows")
                                })?;
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
    }

    fn one_of(pieces: &'static [&'static str]) -> impl Strategy<Value = String> {
        (0..pieces.len()).prop_map(move |i| pieces[i].to_string())
    }

    /// A piece of well-formed source: a token of every class, layout of
    /// every kind (Unicode whitespace, `\r\n`, comments), non-ASCII names.
    /// Pieces are glued with no separator, so neighbours run into each
    /// other the way they would in a real file.
    fn arb_piece() -> impl Strategy<Value = String> {
        prop_oneof![
            4 => one_of(&[" ", "  ", "\t", "\n", "\r\n", "\x0B", "\x0C", "\u{85}", "\u{a0}",
                          "\u{2003}", "\u{3000}", "\u{2028}"]),
            4 => "[a-zé][a-zA-Z0-9_éΩß²]{0,6}",
            2 => "[A-Z_ÉΩÜ][a-z0-9_ïΩ]{0,4}",
            1 => one_of(&["not", "choice", "nothing", "Notvar", "é", "Ω", "ωx", "_"]),
            2 => "[0-9]{1,9}",
            1 => "%[ a-zé()'Ω]{0,8}\n",
            1 => "'[a-z Ω\n,.%é]{0,6}'",
            4 => one_of(&["(", ")", "[", "]", ",", ".", "&", "|", "=", "<", "<=", ">", ">=", "!",
                          "!=", ":-"]),
        ]
    }

    /// What may end a source: nothing, a comment without a newline, or a
    /// lexical error — an overflowing integer, an unterminated quote, a
    /// lone `:`, a stray ASCII or wide character.
    fn arb_tail() -> impl Strategy<Value = String> {
        prop_oneof![
            2 => Just(String::new()),
            1 => "%[a-zΩé ]{0,5}",
            1 => "[1-9][0-9]{19}",
            1 => "'[a-z\nΩ]{0,3}",
            1 => one_of(&[":", ":x", "-", "@", "\"", "#", "\x1C", "\u{7f}", "→", "€", "😀",
                          "\u{301}"]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn byte_lexer_matches_the_character_reference(
            pieces in proptest::collection::vec(arb_piece(), 0..60),
            tail in arb_tail(),
        ) {
            let src = pieces.concat() + &tail;
            let pulled: Vec<_> = Lexer::new(&src).collect();
            prop_assert_eq!(&pulled, &reference::stream(&src), "{:?}", src);
        }
    }

    fn pos(line: u32, col: u32) -> Pos {
        Pos { line, col }
    }
}
