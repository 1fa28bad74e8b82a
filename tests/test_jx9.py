"""Tests for the Jx9 query engine, including paper Listing 4 verbatim."""

import pytest

from repro.bedrock.jx9 import Jx9Error, Jx9SyntaxError, jx9_execute

LISTING_4 = """
$result = [];
foreach ($__config__.providers as $p) {
    array_push($result, $p.name); }
return $result;
"""


def test_listing4_runs_verbatim():
    config = {
        "providers": [
            {"name": "myProviderA", "type": "A"},
            {"name": "myProviderB", "type": "B"},
        ]
    }
    result = jx9_execute(LISTING_4, {"__config__": config})
    assert result == ["myProviderA", "myProviderB"]


def test_literals_and_arithmetic():
    assert jx9_execute("return 1 + 2 * 3;") == 7
    assert jx9_execute("return (1 + 2) * 3;") == 9
    assert jx9_execute("return 10 / 4;") == 2.5
    assert jx9_execute("return 7 % 3;") == 1
    assert jx9_execute("return -5 + 1;") == -4
    assert jx9_execute("return 1.5 + 2.5;") == 4.0
    assert jx9_execute('return "a" + "b";') == "ab"
    assert jx9_execute('return "n=" + 3;') == "n=3"


def test_booleans_and_comparisons():
    assert jx9_execute("return true && false;") is False
    assert jx9_execute("return true || false;") is True
    assert jx9_execute("return !false;") is True
    assert jx9_execute("return 1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3;") is True
    assert jx9_execute("return 1 == 1 && 1 != 2;") is True
    assert jx9_execute("return null;") is None


def test_variables_and_assignment():
    assert jx9_execute("$x = 5; $y = $x * 2; return $y;") == 10
    with pytest.raises(Jx9Error, match="undefined variable"):
        jx9_execute("return $ghost;")


def test_arrays_and_objects():
    assert jx9_execute("return [1, 2, 3];") == [1, 2, 3]
    assert jx9_execute('return {"a": 1, "b": 2};') == {"a": 1, "b": 2}
    assert jx9_execute("$a = [10, 20]; return $a[1];") == 20
    assert jx9_execute('$o = {"k": "v"}; return $o["k"];') == "v"
    assert jx9_execute('$o = {"k": "v"}; return $o.k;') == "v"
    assert jx9_execute('$o = {}; $o.x = 1; return $o;') == {"x": 1}
    assert jx9_execute("$a = [0]; $a[0] = 9; return $a;") == [9]


def test_missing_member_is_null():
    assert jx9_execute('$o = {"a": 1}; return $o.missing;') is None


def test_foreach_with_key_value():
    code = """
    $keys = [];
    $vals = [];
    foreach ($obj as $k => $v) { array_push($keys, $k); array_push($vals, $v); }
    return [$keys, $vals];
    """
    keys, vals = jx9_execute(code, {"obj": {"x": 1, "y": 2}})
    assert sorted(keys) == ["x", "y"]
    assert sorted(vals) == [1, 2]


def test_foreach_over_array_gives_values():
    code = "$out = []; foreach ($xs as $x) { array_push($out, $x * 2); } return $out;"
    assert jx9_execute(code, {"xs": [1, 2, 3]}) == [2, 4, 6]


def test_if_else_and_while():
    code = """
    $n = 0;
    $total = 0;
    while ($n < 5) {
        if ($n % 2 == 0) { $total = $total + $n; }
        else { $total = $total - 1; }
        $n = $n + 1;
    }
    return $total;
    """
    assert jx9_execute(code) == 4  # 0+2+4 - 2


def test_builtins():
    assert jx9_execute("return count([1, 2, 3]);") == 3
    assert jx9_execute('return strlen("abcd");') == 4
    assert jx9_execute('return substr("hello", 1, 3);') == "ell"
    assert jx9_execute('return in_array(2, [1, 2]);') is True
    assert jx9_execute('return array_keys({"b": 1, "a": 2});') == ["a", "b"]
    assert jx9_execute('return array_values({"a": 7});') == [7]
    assert jx9_execute("return max(1, 5) + min(2, 0) + abs(-3);") == 8
    assert jx9_execute("return is_array([]) && is_object({}) && is_string(\"s\");") is True
    for args, sliced in [("-2", [3, 4]), ("1, 2", [2, 3]), ("-3, -1", [2, 3]),
                         ("-9, 2", [1, 2]), ("1, -9", []), ("9", [])]:
        assert jx9_execute(f"return array_slice([1, 2, 3, 4], {args});") == sliced


def test_comments():
    assert jx9_execute("// line comment\n/* block\ncomment */ return 1;") == 1


def test_unknown_function_rejected():
    with pytest.raises(Jx9Error, match="unknown function"):
        jx9_execute("return system('rm -rf /');")


def test_step_budget():
    with pytest.raises(Jx9Error, match="steps"):
        jx9_execute("$i = 0; while (true) { $i = $i + 1; }", max_steps=1000)
    # What a script builds pays the budget: a doubled string per byte, a
    # stored container per node copied (a DAG cannot escape as a tree).
    for script in ['$s = "x";' + " $s = $s + $s;" * 25 + " return $s;",
                   "$a = [];" + " $a = [$a, $a];" * 20 + " return $a;"]:
        with pytest.raises(Jx9Error, match="steps"):
            jx9_execute(script)
    # Stored values are copies: no aliasing, no cycles, no deep nests.
    assert jx9_execute("$a = [1]; $b = [$a]; $a[0] = 2; $a[0] = $a; return [$a, $b];") == [
        [[2]], [[1]]]
    with pytest.raises(Jx9Error, match="nests"):
        jx9_execute("$a = []; while (true) { $a = [$a]; }")


def test_syntax_errors():
    for bad in ["$x = ;", "foreach $x as $y {}", "return [1, 2", "$", "{ return 1;",
                "@nonsense"]:
        with pytest.raises(Jx9SyntaxError):
            jx9_execute(bad)


def test_runtime_type_errors():
    with pytest.raises(Jx9Error):
        jx9_execute("return count(5);")
    with pytest.raises(Jx9Error):
        jx9_execute("$x = 1; return $x.member;")
    with pytest.raises(Jx9Error):
        jx9_execute("foreach (5 as $x) {}")
    with pytest.raises(Jx9Error):
        jx9_execute("return 1 / 0;")
    with pytest.raises(Jx9Error):
        jx9_execute("return array_push(5, 1);")
    for script in ['return "x" * 100000000;', 'return -"x";', "return [1] + [2];",
                   'return "a" + [1];', "return strlen(5);", "$a = [1]; $a[7] = 0;"]:
        with pytest.raises(Jx9Error):
            jx9_execute(script)
    assert jx9_execute("$x = 3037000500; return $x * $x;") == 3037000500.0**2


def test_parameterized_config_generation():
    """Jx9 'can also be used as input in place of JSON, allowing
    parameterized configurations' (paper section 5)."""
    template = """
    $pools = [];
    $n = 0;
    while ($n < $num_pools) {
        array_push($pools, {"name": "pool" + $n, "type": "fifo_wait"});
        $n = $n + 1;
    }
    return {"argobots": {"pools": $pools}};
    """
    doc = jx9_execute(template, {"num_pools": 3})
    assert [p["name"] for p in doc["argobots"]["pools"]] == ["pool0", "pool1", "pool2"]
