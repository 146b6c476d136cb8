//! Parse errors.

use std::fmt;

use crate::token::Pos;

/// A lexing or parsing error with source position.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Where the error was detected.
    pub pos: Pos,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    /// Build an error at `pos`.
    pub fn new(pos: Pos, message: impl Into<String>) -> Self {
        ParseError {
            pos,
            message: message.into(),
        }
    }

    /// `parse error: <message>`, the headline of `idlog lint`'s E001.
    pub fn headline(&self) -> String {
        format!("parse error: {}", self.message)
    }
}

/// The headline with the position appended, `parse error: <message> (at
/// <line>:<col>)`, so the engine and `idlog lint` report a parse error in
/// the same words.
impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at {})", self.headline(), self.pos)
    }
}

impl std::error::Error for ParseError {}

/// Result alias for parsing.
pub type ParseResult<T> = Result<T, ParseError>;
