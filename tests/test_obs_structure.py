"""One HTTP server, one request handler, one exposition writer (AST and
text only — nothing is imported or run).

The engine's live endpoints and the job server's API once had a server
class, a ``type()``-bound handler class and send/JSON/error plumbing each,
and the job server rebuilt the Prometheus text format inline.  Now
``repro.obs.serve`` is the one module that knows HTTP and the exposition
format, and each face is a plain function; these checks keep it that way.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SERVE = SRC / "obs" / "serve.py"
SERVICE_SERVER = SRC / "service" / "server.py"
SERVICE_API = SRC / "service" / "api.py"


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _base_names(cls):
    return {ast.unparse(base).rsplit(".", 1)[-1] for base in cls.bases}


def test_one_threading_http_server():
    calls = [
        path.relative_to(SRC).as_posix()
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rsplit(".", 1)[-1] == "ThreadingHTTPServer"
    ]
    assert calls == ["obs/serve.py"]


def test_one_request_handler_class():
    handlers = [
        node.name
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and "BaseHTTPRequestHandler" in _base_names(node)
    ]
    assert handlers == ["_Handler"]


def test_one_exposition_writer():
    writers = [
        node.name
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and {"family", "sample", "histogram"} <= {
            item.name for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
    ]
    assert writers == ["Exposition"]


def test_help_and_type_lines_are_written_in_serve_only():
    writers = set()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ("# HELP " in node.value or "# TYPE " in node.value)
            ):
                writers.add(path)
    assert writers == {SERVE}


def test_the_service_imports_no_http_server_or_escaping():
    for path in (SERVICE_SERVER, SERVICE_API):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(alias.name for alias in node.names)
        assert not imported & {
            "http.server", "escape_label_value", "escape_help",
            "_format_labels",
        }, path.name


def test_the_old_servers_and_closures_are_gone():
    defined = {
        node.name
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert not defined & {
        "MetricsServer", "ApiServer", "_ApiHandler", "_format_bound",
    }
    tree = ast.parse(SERVICE_SERVER.read_text())
    (metrics_text,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "metrics_text"
    ]
    nested = [
        node.name for node in ast.walk(metrics_text)
        if isinstance(node, ast.FunctionDef) and node is not metrics_text
    ]
    assert not nested
    assert "type(" not in SERVE.read_text()
