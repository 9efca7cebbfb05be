//! Runtime values and environments shared by the GProb interpreter and the
//! baseline Stan interpreter.

use std::collections::HashMap;
use std::fmt;

use minidiff::Real;

/// Error raised while evaluating expressions or running a model.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    message: String,
}

impl RuntimeError {
    /// Creates a runtime error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        RuntimeError {
            message: message.into(),
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

impl From<probdist::DistError> for RuntimeError {
    fn from(e: probdist::DistError) -> Self {
        RuntimeError::new(e.to_string())
    }
}

/// Iterations one `while` loop may run before evaluation fails, so a
/// program that never leaves its loop ends in an error rather than a hang.
const WHILE_ITERATION_BUDGET: usize = 10_000_000;

/// Counts one `while` iteration against the shared budget. Every evaluator
/// calls this once per iteration that enters the loop body.
///
/// # Errors
/// Fails once the count exceeds the budget.
pub(crate) fn count_while_iteration(iterations: &mut usize) -> Result<(), RuntimeError> {
    *iterations += 1;
    if *iterations > WHILE_ITERATION_BUDGET {
        return Err(RuntimeError::new(
            "while loop exceeded the iteration budget",
        ));
    }
    Ok(())
}

/// A runtime value. Stan's `vector`, `row_vector` and one-dimensional real
/// arrays all map to [`Value::Vector`]; matrices and higher-dimensional
/// arrays are nested [`Value::Array`]s.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<T: Real> {
    /// Integer scalar.
    Int(i64),
    /// Real scalar (possibly gradient-tracked).
    Real(T),
    /// Flat vector of reals.
    Vector(Vec<T>),
    /// Flat vector of integers.
    IntArray(Vec<i64>),
    /// Nested array (of anything), also used for matrices (array of rows).
    Array(Vec<Value<T>>),
    /// The unit value, produced by `observe` / `factor`.
    Unit,
}

impl<T: Real> Value<T> {
    /// Interprets the value as a real scalar (integers are promoted).
    ///
    /// # Errors
    /// Fails on vectors, arrays, and unit.
    pub fn as_real(&self) -> Result<T, RuntimeError> {
        match self {
            Value::Real(x) => Ok(*x),
            Value::Int(k) => Ok(T::from_f64(*k as f64)),
            other => Err(RuntimeError::new(format!(
                "expected a scalar, found {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as an integer.
    ///
    /// # Errors
    /// Fails on non-scalars; reals are rounded only if they are integral.
    pub fn as_int(&self) -> Result<i64, RuntimeError> {
        match self {
            Value::Int(k) => Ok(*k),
            Value::Real(x) => {
                let v = x.value();
                if (v - v.round()).abs() < 1e-9 {
                    Ok(v.round() as i64)
                } else {
                    Err(RuntimeError::new(format!(
                        "expected an integer, found real {v}"
                    )))
                }
            }
            other => Err(RuntimeError::new(format!(
                "expected an integer, found {}",
                other.kind()
            ))),
        }
    }

    /// Interprets the value as a flat vector of reals (integer arrays and
    /// scalars are promoted; nested arrays are flattened).
    ///
    /// # Errors
    /// Fails if any leaf is not numeric.
    pub fn as_real_vec(&self) -> Result<Vec<T>, RuntimeError> {
        match self {
            Value::Vector(v) => Ok(v.clone()),
            Value::IntArray(v) => Ok(v.iter().map(|k| T::from_f64(*k as f64)).collect()),
            Value::Real(x) => Ok(vec![*x]),
            Value::Int(k) => Ok(vec![T::from_f64(*k as f64)]),
            Value::Array(items) => {
                let mut out = Vec::new();
                for item in items {
                    out.extend(item.as_real_vec()?);
                }
                Ok(out)
            }
            Value::Unit => Err(RuntimeError::new("expected a vector, found unit")),
        }
    }

    /// Sums the value's elements as a real scalar: containers are reduced,
    /// scalars pass through. Used by `target +=` / `factor` with container
    /// arguments.
    ///
    /// # Errors
    /// Fails if any leaf is not numeric.
    pub fn sum_as_real(&self) -> Result<T, RuntimeError> {
        match self {
            Value::Vector(xs) => {
                let mut acc = T::from_f64(0.0);
                for x in xs {
                    acc = acc + *x;
                }
                Ok(acc)
            }
            Value::IntArray(xs) => Ok(T::from_f64(xs.iter().sum::<i64>() as f64)),
            Value::Array(items) => {
                let mut acc = T::from_f64(0.0);
                for item in items {
                    acc = acc + item.sum_as_real()?;
                }
                Ok(acc)
            }
            other => other.as_real(),
        }
    }

    /// A short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Real(_) => "real",
            Value::Vector(_) => "vector",
            Value::IntArray(_) => "int array",
            Value::Array(_) => "array",
            Value::Unit => "unit",
        }
    }

    /// Number of elements along the first dimension (scalars have length 1).
    pub fn len(&self) -> usize {
        match self {
            Value::Vector(v) => v.len(),
            Value::IntArray(v) => v.len(),
            Value::Array(v) => v.len(),
            _ => 1,
        }
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Indexes with a 1-based Stan index.
    ///
    /// # Errors
    /// Fails when out of bounds or when indexing a scalar.
    pub fn index(&self, i: i64) -> Result<Value<T>, RuntimeError> {
        let check = |len: usize| -> Result<usize, RuntimeError> {
            if i < 1 || i as usize > len {
                Err(RuntimeError::new(format!(
                    "index {i} out of bounds for length {len}"
                )))
            } else {
                Ok((i - 1) as usize)
            }
        };
        match self {
            Value::Vector(v) => Ok(Value::Real(v[check(v.len())?])),
            Value::IntArray(v) => Ok(Value::Int(v[check(v.len())?])),
            Value::Array(v) => Ok(v[check(v.len())?].clone()),
            other => Err(RuntimeError::new(format!(
                "cannot index a {}",
                other.kind()
            ))),
        }
    }

    /// Sets the element at a 1-based index, promoting containers as needed.
    ///
    /// # Errors
    /// Fails when out of bounds or on kind mismatches.
    pub fn set_index(&mut self, i: i64, val: Value<T>) -> Result<(), RuntimeError> {
        let idx = (i - 1) as usize;
        match self {
            Value::Vector(v) => {
                if idx >= v.len() {
                    return Err(RuntimeError::new(format!(
                        "index {i} out of bounds for length {}",
                        v.len()
                    )));
                }
                v[idx] = val.as_real()?;
                Ok(())
            }
            Value::IntArray(v) => {
                if idx >= v.len() {
                    return Err(RuntimeError::new(format!(
                        "index {i} out of bounds for length {}",
                        v.len()
                    )));
                }
                match val {
                    Value::Int(k) => {
                        v[idx] = k;
                        Ok(())
                    }
                    // Assigning a real into an int array promotes the array.
                    other => {
                        let mut promoted: Vec<T> =
                            v.iter().map(|k| T::from_f64(*k as f64)).collect();
                        promoted[idx] = other.as_real()?;
                        *self = Value::Vector(promoted);
                        Ok(())
                    }
                }
            }
            Value::Array(v) => {
                if idx >= v.len() {
                    return Err(RuntimeError::new(format!(
                        "index {i} out of bounds for length {}",
                        v.len()
                    )));
                }
                v[idx] = val;
                Ok(())
            }
            other => Err(RuntimeError::new(format!(
                "cannot assign into a {}",
                other.kind()
            ))),
        }
    }

    /// Deep conversion to plain `f64` values (detaching any gradient info).
    pub fn detach(&self) -> Value<f64> {
        match self {
            Value::Int(k) => Value::Int(*k),
            Value::Real(x) => Value::Real(x.value()),
            Value::Vector(v) => Value::Vector(v.iter().map(|x| x.value()).collect()),
            Value::IntArray(v) => Value::IntArray(v.clone()),
            Value::Array(v) => Value::Array(v.iter().map(|x| x.detach()).collect()),
            Value::Unit => Value::Unit,
        }
    }

    /// Lifts a plain value into any scalar type (constants, no gradient).
    pub fn lift(v: &Value<f64>) -> Value<T> {
        match v {
            Value::Int(k) => Value::Int(*k),
            Value::Real(x) => Value::Real(T::from_f64(*x)),
            Value::Vector(xs) => Value::Vector(xs.iter().map(|x| T::from_f64(*x)).collect()),
            Value::IntArray(xs) => Value::IntArray(xs.clone()),
            Value::Array(xs) => Value::Array(xs.iter().map(Value::lift).collect()),
            Value::Unit => Value::Unit,
        }
    }
}

impl<T: Real> From<f64> for Value<T> {
    fn from(v: f64) -> Self {
        Value::Real(T::from_f64(v))
    }
}

impl<T: Real> From<i64> for Value<T> {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

/// A variable environment mapping names to values.
pub type Env<T> = HashMap<String, Value<T>>;

/// A read-only, name-addressed view of a variable environment.
///
/// The runtime-extension boundary (external functions such as DeepStan
/// networks, and user-defined function calls) is name-addressed, while the
/// hot evaluation path is slot-addressed. This trait lets both environment
/// representations — the string-keyed [`Env`] and the slot-resolved
/// `resolved::Frame` — serve those boundary consumers without copying.
pub trait EnvView<T: Real> {
    /// Looks up a variable by name.
    fn get_var(&self, name: &str) -> Option<&Value<T>>;
    /// Visits every bound variable.
    fn for_each_var(&self, f: &mut dyn FnMut(&str, &Value<T>));
}

impl<T: Real> EnvView<T> for Env<T> {
    fn get_var(&self, name: &str) -> Option<&Value<T>> {
        self.get(name)
    }
    fn for_each_var(&self, f: &mut dyn FnMut(&str, &Value<T>)) {
        for (k, v) in self {
            f(k, v);
        }
    }
}

/// Builds a data environment (plain `f64`) from `(name, value)` pairs.
pub fn env_from_pairs(pairs: &[(&str, Value<f64>)]) -> Env<f64> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Lifts an `f64` environment into an environment over any scalar type.
pub fn lift_env<T: Real>(env: &Env<f64>) -> Env<T> {
    env.iter()
        .map(|(k, v)| (k.clone(), Value::lift(v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_conversions() {
        let v: Value<f64> = Value::Int(3);
        assert_eq!(v.as_real().unwrap(), 3.0);
        assert_eq!(v.as_int().unwrap(), 3);
        let r: Value<f64> = Value::Real(2.0);
        assert_eq!(r.as_int().unwrap(), 2);
        assert!(Value::<f64>::Real(2.5).as_int().is_err());
        assert!(Value::<f64>::Unit.as_real().is_err());
    }

    #[test]
    fn one_based_indexing() {
        let v: Value<f64> = Value::Vector(vec![10.0, 20.0, 30.0]);
        assert_eq!(v.index(1).unwrap(), Value::Real(10.0));
        assert_eq!(v.index(3).unwrap(), Value::Real(30.0));
        assert!(v.index(0).is_err());
        assert!(v.index(4).is_err());
    }

    #[test]
    fn set_index_promotes_int_arrays() {
        let mut v: Value<f64> = Value::IntArray(vec![1, 2, 3]);
        v.set_index(2, Value::Real(9.5)).unwrap();
        assert_eq!(v, Value::Vector(vec![1.0, 9.5, 3.0]));
    }

    #[test]
    fn flattening_nested_arrays() {
        let v: Value<f64> = Value::Array(vec![
            Value::Vector(vec![1.0, 2.0]),
            Value::Vector(vec![3.0, 4.0]),
        ]);
        assert_eq!(v.as_real_vec().unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn detach_and_lift_roundtrip() {
        let v: Value<f64> = Value::Array(vec![Value::Int(1), Value::Real(2.5)]);
        let lifted: Value<f64> = Value::lift(&v.detach());
        assert_eq!(lifted, v);
    }
}
