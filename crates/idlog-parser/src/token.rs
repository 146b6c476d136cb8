//! Tokens and source positions.

use std::fmt;

use idlog_common::Nat;

/// A position in the source text (1-based line and column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Pos {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Lexical tokens. Names borrow from the source text: an identifier is the
/// slice it was read from, a quoted atom the slice between its quotes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Token<'a> {
    /// Lowercase-initial identifier (predicate or constant), or quoted atom.
    Ident(&'a str),
    /// Uppercase- or `_`-initial identifier.
    Var(&'a str),
    /// Integer literal: digits only, so a natural.
    Int(Nat),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:-`
    Implies,
    /// `&`
    Amp,
    /// `|` (disjunctive head separator, DATALOG∨)
    Pipe,
    /// `not`
    Not,
    /// `choice`
    Choice,
    /// `!` (top-down cut; only meaningful to the SLD evaluator)
    Cut,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Var(s) => write!(f, "variable `{s}`"),
            Token::Int(n) => write!(f, "integer `{n}`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::LBracket => write!(f, "`[`"),
            Token::RBracket => write!(f, "`]`"),
            Token::Comma => write!(f, "`,`"),
            Token::Dot => write!(f, "`.`"),
            Token::Implies => write!(f, "`:-`"),
            Token::Amp => write!(f, "`&`"),
            Token::Pipe => write!(f, "`|`"),
            Token::Not => write!(f, "`not`"),
            Token::Choice => write!(f, "`choice`"),
            Token::Cut => write!(f, "`!`"),
            Token::Lt => write!(f, "`<`"),
            Token::Le => write!(f, "`<=`"),
            Token::Gt => write!(f, "`>`"),
            Token::Ge => write!(f, "`>=`"),
            Token::Eq => write!(f, "`=`"),
            Token::Ne => write!(f, "`!=`"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Where it starts.
    pub pos: Pos,
    /// One past where it ends (the position of the following character).
    pub end: Pos,
}
