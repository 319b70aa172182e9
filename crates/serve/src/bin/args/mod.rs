//! Argument helpers shared by the `clean-serve` and `clean-fleet` CLIs.

/// Pulls the value of `--flag value` out of `args`, removing both.
pub fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if pos + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Ok(Some(value))
}

/// Pulls every occurrence of `--flag value` out of `args`.
pub fn take_values(args: &mut Vec<String>, flag: &str) -> Result<Vec<String>, String> {
    let mut values = Vec::new();
    while let Some(v) = take_value(args, flag)? {
        values.push(v);
    }
    Ok(values)
}

pub fn parse_num<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {what}: {value:?}"))
}
