//! Recursive-descent parser producing the [`crate::ast`] types.

use crate::ast::*;
use crate::error::{FrontendError, Span};
use crate::lexer::{Tok, Token};

/// Truncation bounds `T[lo, hi]` (either side optional).
type Truncation = (Option<Expr>, Option<Expr>);

/// Type keywords that can begin a declaration.
const TYPE_KEYWORDS: &[&str] = &[
    "int",
    "real",
    "vector",
    "row_vector",
    "matrix",
    "simplex",
    "ordered",
    "positive_ordered",
    "unit_vector",
    "cov_matrix",
    "corr_matrix",
    "cholesky_factor_corr",
];

/// The recursive-descent parser. Construct with [`Parser::new`] and call
/// [`Parser::parse_program`].
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Creates a parser over a token stream produced by [`crate::lexer::lex`].
    pub fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek_at(&self, offset: usize) -> &Tok {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    /// Moves past the current token and returns it. The parser never
    /// backtracks, so it takes the token out of the stream instead of
    /// cloning it; the final `Eof` stays in place.
    fn bump(&mut self) -> Tok {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::replace(&mut self.tokens[self.pos - 1].tok, Tok::Eof)
        } else {
            self.tokens[self.pos].tok.clone()
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Sym(s) if *s == sym) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), FrontendError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(FrontendError::parse(
                format!("expected `{sym}`, found {}", self.peek().describe()),
                self.span(),
            ))
        }
    }

    fn peek_ident(&self) -> Option<&str> {
        match self.peek() {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if self.peek_ident() == Some(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, FrontendError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(FrontendError::parse(
                format!("expected identifier, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    /// Parses a complete program: any subset of the ten blocks, in order.
    ///
    /// # Errors
    /// Returns a parse error at the first unexpected token.
    pub fn parse_program(&mut self) -> Result<Program, FrontendError> {
        let mut program = Program::default();
        let mut saw_model = false;
        loop {
            match self.peek_ident() {
                Some("functions") => {
                    self.bump();
                    self.expect_sym("{")?;
                    while !self.eat_sym("}") {
                        program.functions.push(self.parse_fun_decl()?);
                    }
                }
                Some("networks") => {
                    self.bump();
                    self.expect_sym("{")?;
                    while !self.eat_sym("}") {
                        program.networks.push(self.parse_network_decl()?);
                    }
                }
                Some("data") => {
                    self.bump();
                    self.expect_sym("{")?;
                    program.data = self.parse_decl_list()?;
                }
                Some("transformed") => {
                    self.bump();
                    let which = self.expect_ident()?;
                    self.expect_sym("{")?;
                    let body = self.parse_block_body()?;
                    match which.as_str() {
                        "data" => program.transformed_data = Some(body),
                        "parameters" => program.transformed_parameters = Some(body),
                        other => {
                            return Err(FrontendError::parse(
                                format!("unknown block `transformed {other}`"),
                                self.span(),
                            ))
                        }
                    }
                }
                Some("parameters") => {
                    self.bump();
                    self.expect_sym("{")?;
                    program.parameters = self.parse_decl_list()?;
                }
                Some("guide") => {
                    self.bump();
                    if self.eat_ident("parameters") {
                        self.expect_sym("{")?;
                        program.guide_parameters = self.parse_decl_list()?;
                    } else {
                        self.expect_sym("{")?;
                        program.guide = Some(self.parse_block_body()?);
                    }
                }
                Some("model") => {
                    self.bump();
                    self.expect_sym("{")?;
                    program.model = self.parse_block_body()?;
                    saw_model = true;
                }
                Some("generated") => {
                    self.bump();
                    let q = self.expect_ident()?;
                    if q != "quantities" {
                        return Err(FrontendError::parse(
                            format!("expected `quantities` after `generated`, found `{q}`"),
                            self.span(),
                        ));
                    }
                    self.expect_sym("{")?;
                    program.generated_quantities = Some(self.parse_block_body()?);
                }
                _ => break,
            }
        }
        if !matches!(self.peek(), Tok::Eof) {
            return Err(FrontendError::parse(
                format!("unexpected {} after last block", self.peek().describe()),
                self.span(),
            ));
        }
        if !saw_model {
            return Err(FrontendError::parse(
                "a Stan program requires a `model` block",
                self.span(),
            ));
        }
        Ok(program)
    }

    fn parse_decl_list(&mut self) -> Result<Vec<Decl>, FrontendError> {
        let mut decls = Vec::new();
        while !self.eat_sym("}") {
            decls.push(self.parse_decl()?);
        }
        Ok(decls)
    }

    fn parse_block_body(&mut self) -> Result<BlockBody, FrontendError> {
        let mut stmts = Vec::new();
        while !self.eat_sym("}") {
            if self.at_decl_start() {
                stmts.push(Stmt::LocalDecl(self.parse_decl()?));
            } else {
                stmts.push(self.parse_stmt()?);
            }
        }
        Ok(BlockBody { stmts })
    }

    fn at_decl_start(&self) -> bool {
        match self.peek_ident() {
            Some(word) if TYPE_KEYWORDS.contains(&word) => {
                // `real` could also begin a cast-like call in theory, but in
                // Stan a type keyword in statement position always starts a
                // declaration.
                !matches!(self.peek_at(1), Tok::Sym("("))
            }
            _ => false,
        }
    }

    fn parse_unsized_type(&mut self) -> Result<UnsizedType, FrontendError> {
        let kind = self.expect_ident()?;
        let mut array_dims = 0usize;
        if self.eat_sym("[") {
            array_dims = 1;
            while self.eat_sym(",") {
                array_dims += 1;
            }
            self.expect_sym("]")?;
        }
        Ok(UnsizedType { kind, array_dims })
    }

    fn parse_fun_args(&mut self) -> Result<Vec<FunArg>, FrontendError> {
        let mut args = Vec::new();
        self.expect_sym("(")?;
        if self.eat_sym(")") {
            return Ok(args);
        }
        loop {
            let is_data = self.eat_ident("data");
            let ty = self.parse_unsized_type()?;
            let name = self.expect_ident()?;
            args.push(FunArg { is_data, ty, name });
            if self.eat_sym(")") {
                break;
            }
            self.expect_sym(",")?;
        }
        Ok(args)
    }

    fn parse_fun_decl(&mut self) -> Result<FunDecl, FrontendError> {
        let return_type = self.parse_unsized_type()?;
        let name = self.expect_ident()?;
        let args = self.parse_fun_args()?;
        self.expect_sym("{")?;
        let body = self.parse_block_body()?;
        Ok(FunDecl {
            return_type,
            name,
            args,
            body,
        })
    }

    fn parse_network_decl(&mut self) -> Result<NetworkDecl, FrontendError> {
        let return_type = self.parse_unsized_type()?;
        let name = self.expect_ident()?;
        let args = self.parse_fun_args()?;
        self.expect_sym(";")?;
        Ok(NetworkDecl {
            return_type,
            name,
            args,
        })
    }

    fn parse_constraint(&mut self) -> Result<ConstraintSpec, FrontendError> {
        let mut spec = ConstraintSpec::default();
        if !self.eat_sym("<") {
            return Ok(spec);
        }
        loop {
            let key = self.expect_ident()?;
            self.expect_sym("=")?;
            // Constraint bounds stop at the additive level so that the closing
            // `>` of the constraint is not mistaken for a comparison operator.
            let value = self.parse_additive()?;
            match key.as_str() {
                "lower" => spec.lower = Some(value),
                "upper" => spec.upper = Some(value),
                // offset/multiplier are parsed and ignored (they only affect
                // sampler adaptation, not the density).
                "offset" | "multiplier" => {}
                other => {
                    return Err(FrontendError::parse(
                        format!("unknown constraint `{other}`"),
                        self.span(),
                    ))
                }
            }
            if self.eat_sym(">") {
                break;
            }
            self.expect_sym(",")?;
        }
        Ok(spec)
    }

    fn parse_base_type(&mut self) -> Result<(BaseType, ConstraintSpec), FrontendError> {
        let kind = self.expect_ident()?;
        match kind.as_str() {
            "int" => Ok((BaseType::Int, self.parse_constraint()?)),
            "real" => Ok((BaseType::Real, self.parse_constraint()?)),
            "vector"
            | "row_vector"
            | "simplex"
            | "ordered"
            | "positive_ordered"
            | "unit_vector"
            | "cov_matrix"
            | "corr_matrix"
            | "cholesky_factor_corr" => {
                let constraint = self.parse_constraint()?;
                self.expect_sym("[")?;
                let n = self.parse_expr()?;
                self.expect_sym("]")?;
                let ty = match kind.as_str() {
                    "vector" => BaseType::Vector(Box::new(n)),
                    "row_vector" => BaseType::RowVector(Box::new(n)),
                    "simplex" => BaseType::Simplex(Box::new(n)),
                    "ordered" => BaseType::Ordered(Box::new(n)),
                    "positive_ordered" => BaseType::PositiveOrdered(Box::new(n)),
                    "unit_vector" => BaseType::UnitVector(Box::new(n)),
                    "cov_matrix" => BaseType::CovMatrix(Box::new(n)),
                    "corr_matrix" => BaseType::CorrMatrix(Box::new(n)),
                    _ => BaseType::CholeskyFactorCorr(Box::new(n)),
                };
                Ok((ty, constraint))
            }
            "matrix" => {
                let constraint = self.parse_constraint()?;
                self.expect_sym("[")?;
                let r = self.parse_expr()?;
                self.expect_sym(",")?;
                let c = self.parse_expr()?;
                self.expect_sym("]")?;
                Ok((BaseType::Matrix(Box::new(r), Box::new(c)), constraint))
            }
            other => Err(FrontendError::parse(
                format!("expected a type, found `{other}`"),
                self.span(),
            )),
        }
    }

    fn parse_decl(&mut self) -> Result<Decl, FrontendError> {
        let (ty, constraint) = self.parse_base_type()?;
        let name = self.expect_ident()?;
        let mut dims = Vec::new();
        if self.eat_sym("[") {
            loop {
                dims.push(self.parse_expr()?);
                if self.eat_sym("]") {
                    break;
                }
                self.expect_sym(",")?;
            }
        }
        let init = if self.eat_sym("=") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        self.expect_sym(";")?;
        Ok(Decl {
            ty,
            constraint,
            name,
            dims,
            init,
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, FrontendError> {
        // Empty statement.
        if self.eat_sym(";") {
            return Ok(Stmt::Skip);
        }
        // Braced block.
        if self.eat_sym("{") {
            let body = self.parse_block_body()?;
            return Ok(Stmt::Block(body.stmts));
        }
        match self.peek_ident() {
            Some("if") => return self.parse_if(),
            Some("for") => return self.parse_for(),
            Some("while") => return self.parse_while(),
            Some("break") => {
                self.bump();
                self.expect_sym(";")?;
                return Ok(Stmt::Break);
            }
            Some("continue") => {
                self.bump();
                self.expect_sym(";")?;
                return Ok(Stmt::Continue);
            }
            Some("return") => {
                self.bump();
                if self.eat_sym(";") {
                    return Ok(Stmt::Return(None));
                }
                let e = self.parse_expr()?;
                self.expect_sym(";")?;
                return Ok(Stmt::Return(Some(e)));
            }
            Some("print") => {
                self.bump();
                let args = self.parse_call_args()?;
                self.expect_sym(";")?;
                return Ok(Stmt::Print(args));
            }
            Some("reject") => {
                self.bump();
                let args = self.parse_call_args()?;
                self.expect_sym(";")?;
                return Ok(Stmt::Reject(args));
            }
            Some("target") if matches!(self.peek_at(1), Tok::Sym("+=")) => {
                self.bump();
                self.bump();
                let e = self.parse_expr()?;
                self.expect_sym(";")?;
                return Ok(Stmt::TargetPlus(e));
            }
            // Old-style `increment_log_prob(e);`
            Some("increment_log_prob") if matches!(self.peek_at(1), Tok::Sym("(")) => {
                self.bump();
                let mut args = self.parse_call_args()?;
                self.expect_sym(";")?;
                let e = args.pop().ok_or_else(|| {
                    FrontendError::parse("increment_log_prob needs an argument", self.span())
                })?;
                return Ok(Stmt::TargetPlus(e));
            }
            _ => {}
        }

        // Expression-led statements: assignment or ~.
        let lhs = self.parse_expr()?;
        if self.eat_sym("~") {
            let dist = self.expect_ident()?;
            let args = self.parse_call_args()?;
            let truncation = self.parse_truncation()?;
            self.expect_sym(";")?;
            return Ok(Stmt::Tilde {
                lhs,
                dist,
                args,
                truncation,
            });
        }
        let op = if self.eat_sym("=") {
            AssignOp::Assign
        } else if self.eat_sym("+=") {
            AssignOp::AddAssign
        } else if self.eat_sym("-=") {
            AssignOp::SubAssign
        } else if self.eat_sym("*=") {
            AssignOp::MulAssign
        } else if self.eat_sym("/=") {
            AssignOp::DivAssign
        } else {
            return Err(FrontendError::parse(
                format!(
                    "expected `~` or an assignment operator, found {}",
                    self.peek().describe()
                ),
                self.span(),
            ));
        };
        let lvalue = match &lhs {
            Expr::Var(name) => LValue {
                name: name.clone(),
                indices: vec![],
            },
            Expr::Index(base, idx) => match base.lvalue_root() {
                Some(root) if matches!(**base, Expr::Var(_)) => LValue {
                    name: root.to_string(),
                    indices: idx.clone(),
                },
                _ => {
                    return Err(FrontendError::parse(
                        "assignment target must be a variable or indexed variable",
                        self.span(),
                    ))
                }
            },
            _ => {
                return Err(FrontendError::parse(
                    "assignment target must be a variable or indexed variable",
                    self.span(),
                ))
            }
        };
        let rhs = self.parse_expr()?;
        self.expect_sym(";")?;
        Ok(Stmt::Assign {
            lhs: lvalue,
            op,
            rhs,
        })
    }

    fn parse_truncation(&mut self) -> Result<Option<Truncation>, FrontendError> {
        if self.peek_ident() == Some("T") && matches!(self.peek_at(1), Tok::Sym("[")) {
            self.bump();
            self.bump();
            let lo = if matches!(self.peek(), Tok::Sym(",")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_sym(",")?;
            let hi = if matches!(self.peek(), Tok::Sym("]")) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_sym("]")?;
            Ok(Some((lo, hi)))
        } else {
            Ok(None)
        }
    }

    fn parse_if(&mut self) -> Result<Stmt, FrontendError> {
        self.bump(); // `if`
        self.expect_sym("(")?;
        let cond = self.parse_expr()?;
        self.expect_sym(")")?;
        let then_branch = Box::new(self.parse_stmt()?);
        let else_branch = if self.eat_ident("else") {
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn parse_for(&mut self) -> Result<Stmt, FrontendError> {
        self.bump(); // `for`
        self.expect_sym("(")?;
        let var = self.expect_ident()?;
        if !self.eat_ident("in") {
            return Err(FrontendError::parse("expected `in`", self.span()));
        }
        let first = self.parse_expr()?;
        if self.eat_sym(":") {
            let hi = self.parse_expr()?;
            self.expect_sym(")")?;
            let body = Box::new(self.parse_stmt()?);
            Ok(Stmt::ForRange {
                var,
                lo: first,
                hi,
                body,
            })
        } else {
            self.expect_sym(")")?;
            let body = Box::new(self.parse_stmt()?);
            Ok(Stmt::ForEach {
                var,
                collection: first,
                body,
            })
        }
    }

    fn parse_while(&mut self) -> Result<Stmt, FrontendError> {
        self.bump(); // `while`
        self.expect_sym("(")?;
        let cond = self.parse_expr()?;
        self.expect_sym(")")?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::While { cond, body })
    }

    fn parse_call_args(&mut self) -> Result<Vec<Expr>, FrontendError> {
        self.expect_sym("(")?;
        let mut args = Vec::new();
        if self.eat_sym(")") {
            return Ok(args);
        }
        loop {
            args.push(self.parse_expr()?);
            if self.eat_sym(")") {
                break;
            }
            // `|` separates the outcome from the parameters in `_lpdf` calls.
            if !self.eat_sym(",") && !self.eat_sym("|") {
                return Err(FrontendError::parse(
                    format!("expected `,` or `)`, found {}", self.peek().describe()),
                    self.span(),
                ));
            }
        }
        Ok(args)
    }

    /// Parses an expression (entry point also used for constraint bounds and
    /// array dimensions).
    pub fn parse_expr(&mut self) -> Result<Expr, FrontendError> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Expr, FrontendError> {
        let cond = self.parse_or()?;
        if self.eat_sym("?") {
            let a = self.parse_ternary()?;
            self.expect_sym(":")?;
            let b = self.parse_ternary()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
        } else {
            Ok(cond)
        }
    }

    fn parse_or(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_and()?;
        while self.eat_sym("||") {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_equality()?;
        while self.eat_sym("&&") {
            let rhs = self.parse_equality()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_comparison()?;
        loop {
            let op = if self.eat_sym("==") {
                BinOp::Eq
            } else if self.eat_sym("!=") {
                BinOp::Neq
            } else {
                break;
            };
            let rhs = self.parse_comparison()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_comparison(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = if self.eat_sym("<=") {
                BinOp::Leq
            } else if self.eat_sym(">=") {
                BinOp::Geq
            } else if self.eat_sym("<") {
                BinOp::Lt
            } else if self.eat_sym(">") {
                BinOp::Gt
            } else {
                break;
            };
            let rhs = self.parse_additive()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = if self.eat_sym("+") {
                BinOp::Add
            } else if self.eat_sym("-") {
                BinOp::Sub
            } else {
                break;
            };
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, FrontendError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = if self.eat_sym("*") {
                BinOp::Mul
            } else if self.eat_sym("/") {
                BinOp::Div
            } else if self.eat_sym("%") {
                BinOp::Mod
            } else if self.eat_sym(".*") {
                BinOp::EltMul
            } else if self.eat_sym("./") {
                BinOp::EltDiv
            } else {
                break;
            };
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, FrontendError> {
        if self.eat_sym("-") {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(UnOp::Neg, Box::new(e)));
        }
        if self.eat_sym("!") {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(UnOp::Not, Box::new(e)));
        }
        if self.eat_sym("+") {
            let e = self.parse_unary()?;
            return Ok(Expr::Unary(UnOp::Plus, Box::new(e)));
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<Expr, FrontendError> {
        let base = self.parse_postfix()?;
        if self.eat_sym("^") {
            let exp = self.parse_unary()?; // right-associative
            Ok(Expr::Binary(BinOp::Pow, Box::new(base), Box::new(exp)))
        } else {
            Ok(base)
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, FrontendError> {
        let mut e = self.parse_primary()?;
        loop {
            if self.eat_sym("[") {
                let mut idx = Vec::new();
                loop {
                    idx.push(self.parse_index_expr()?);
                    if self.eat_sym("]") {
                        break;
                    }
                    self.expect_sym(",")?;
                }
                e = Expr::Index(Box::new(e), idx);
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn parse_index_expr(&mut self) -> Result<Expr, FrontendError> {
        let first = self.parse_expr()?;
        if self.eat_sym(":") {
            let hi = self.parse_expr()?;
            Ok(Expr::Range(Box::new(first), Box::new(hi)))
        } else {
            Ok(first)
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, FrontendError> {
        let span = self.span();
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntLit(v)),
            Tok::Real(v) => Ok(Expr::RealLit(v)),
            Tok::Str(s) => Ok(Expr::StringLit(s)),
            Tok::Ident(name) => {
                if matches!(self.peek(), Tok::Sym("(")) {
                    let args = self.parse_call_args()?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            Tok::Sym("(") => {
                let e = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Sym("{") => {
                let mut items = Vec::new();
                if !self.eat_sym("}") {
                    loop {
                        items.push(self.parse_expr()?);
                        if self.eat_sym("}") {
                            break;
                        }
                        self.expect_sym(",")?;
                    }
                }
                Ok(Expr::ArrayLit(items))
            }
            Tok::Sym("[") => {
                let mut items = Vec::new();
                if !self.eat_sym("]") {
                    loop {
                        items.push(self.parse_expr()?);
                        if self.eat_sym("]") {
                            break;
                        }
                        self.expect_sym(",")?;
                    }
                }
                Ok(Expr::VectorLit(items))
            }
            other => Err(FrontendError::parse(
                format!("expected an expression, found {}", other.describe()),
                span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Program {
        Parser::new(lex(src).unwrap()).parse_program().unwrap()
    }

    fn parse_err(src: &str) -> FrontendError {
        Parser::new(lex(src).unwrap()).parse_program().unwrap_err()
    }

    #[test]
    fn parses_the_coin_model_of_figure_1() {
        let p = parse(
            r#"
            data {
              int N;
              int<lower=0,upper=1> x[N];
            }
            parameters {
              real<lower=0,upper=1> z;
            }
            model {
              z ~ beta(1, 1);
              for (i in 1:N) x[i] ~ bernoulli(z);
            }
            "#,
        );
        assert_eq!(p.data_names(), vec!["N", "x"]);
        assert_eq!(p.parameter_names(), vec!["z"]);
        assert_eq!(p.model.stmts.len(), 2);
        match &p.model.stmts[1] {
            Stmt::ForRange { var, body, .. } => {
                assert_eq!(var, "i");
                assert!(matches!(**body, Stmt::Tilde { .. }));
            }
            other => panic!("expected for loop, got {other:?}"),
        }
    }

    #[test]
    fn parses_left_expressions_and_target() {
        let p = parse(
            r#"
            parameters { real phi[5]; }
            model {
              sum(phi) ~ normal(0, 0.001 * 5);
              target += -0.5 * dot_self(phi);
            }
            "#,
        );
        match &p.model.stmts[0] {
            Stmt::Tilde { lhs, dist, .. } => {
                assert!(matches!(lhs, Expr::Call(name, _) if name == "sum"));
                assert_eq!(dist, "normal");
            }
            other => panic!("expected tilde, got {other:?}"),
        }
        assert!(matches!(&p.model.stmts[1], Stmt::TargetPlus(_)));
    }

    #[test]
    fn parses_all_seven_classic_blocks() {
        let p = parse(
            r#"
            functions { real square_it(real x) { return x * x; } }
            data { int N; real y[N]; }
            transformed data { real mean_y; mean_y = mean(y); }
            parameters { real mu; real<lower=0> sigma; }
            transformed parameters { real mu2; mu2 = mu * 2; }
            model { y ~ normal(mu2, sigma); }
            generated quantities { real yrep; yrep = normal_rng(mu2, sigma); }
            "#,
        );
        assert_eq!(p.functions.len(), 1);
        assert!(p.transformed_data.is_some());
        assert!(p.transformed_parameters.is_some());
        assert!(p.generated_quantities.is_some());
        assert_eq!(p.functions[0].name, "square_it");
    }

    #[test]
    fn parses_deepstan_blocks() {
        let p = parse(
            r#"
            networks {
              real[,] decoder(real[] x);
              real[,] encoder(int[,] x);
            }
            data { int nz; int<lower=0, upper=1> x[28, 28]; }
            parameters { real z[nz]; }
            model {
              real mu[28, 28];
              z ~ normal(0, 1);
              mu = decoder(z);
              x ~ bernoulli(mu);
            }
            guide parameters { real m1; real<lower=0> s1; }
            guide {
              z ~ normal(m1, s1);
            }
            "#,
        );
        assert!(p.is_deepstan());
        assert_eq!(p.networks.len(), 2);
        assert_eq!(p.networks[0].name, "decoder");
        assert_eq!(p.guide_parameters.len(), 2);
        assert!(p.guide.is_some());
    }

    #[test]
    fn parses_constraints_and_array_dims() {
        let p = parse(
            r#"
            data {
              int<lower=1> N;
              vector[N] x[10];
              matrix[N, 3] m;
              real<lower=0, upper=1> p;
            }
            model { }
            "#,
        );
        assert_eq!(p.data.len(), 4);
        assert_eq!(p.data[1].dims.len(), 1);
        assert!(matches!(p.data[1].ty, BaseType::Vector(_)));
        assert!(matches!(p.data[2].ty, BaseType::Matrix(_, _)));
        assert_eq!(
            p.data[3].constraint,
            ConstraintSpec {
                lower: Some(Expr::IntLit(0)),
                upper: Some(Expr::IntLit(1))
            }
        );
    }

    #[test]
    fn operator_precedence() {
        let p = parse("parameters { real x; } model { x ~ normal(1 + 2 * 3 ^ 2, 1); }");
        match &p.model.stmts[0] {
            Stmt::Tilde { args, .. } => match &args[0] {
                Expr::Binary(BinOp::Add, l, r) => {
                    assert_eq!(**l, Expr::IntLit(1));
                    assert!(matches!(**r, Expr::Binary(BinOp::Mul, _, _)));
                }
                other => panic!("bad precedence: {other:?}"),
            },
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_truncation_and_ternary_and_while() {
        let p = parse(
            r#"
            data { int N; }
            parameters { real mu; }
            model {
              int i;
              i = 0;
              while (i < N) { i = i + 1; }
              mu ~ normal(0, 1) T[0, ];
              target += mu > 0 ? mu : -mu;
            }
            "#,
        );
        let has_trunc = p.model.stmts.iter().any(|s| {
            matches!(
                s,
                Stmt::Tilde {
                    truncation: Some((Some(_), None)),
                    ..
                }
            )
        });
        assert!(has_trunc);
    }

    #[test]
    fn missing_model_block_is_an_error() {
        let err = parse_err("data { int N; }");
        assert!(err.message.contains("model"));
    }

    #[test]
    fn old_style_increment_log_prob() {
        let p = parse(
            r#"
            parameters { real mu; }
            model {
              real x;
              x = 3.0;
              increment_log_prob(-0.5 * mu * mu);
            }
            "#,
        );
        assert!(p
            .model
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::TargetPlus(_))));
    }

    #[test]
    fn vectorized_lpdf_call_with_bar_separator() {
        let p = parse(
            "data { real y; } parameters { real mu; } model { target += normal_lpdf(y | mu, 1); }",
        );
        match &p.model.stmts[0] {
            Stmt::TargetPlus(Expr::Call(name, args)) => {
                assert_eq!(name, "normal_lpdf");
                assert_eq!(args.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unexpected_token_error_mentions_location() {
        let err = parse_err("model { x ~~ normal(0,1); }");
        assert!(err.span.is_some());
    }
}
