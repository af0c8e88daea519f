import json
import subprocess
import sys

MODULES = ("core", "geninv", "reports", "formulas", "conditions", "oracle", "sweep")

# A bare ``import antitri`` in a fresh process, then dir(); prints which modules are
# registered, which executed (type() reads a lazy module's class without loading it),
# whether numpy was imported, and the public names dir() missed.
_FRESH = """
import json, sys, types
import antitri
modules = {MODULES!r}
state = lambda: {{
    "registered": [m for m in modules if "antitri." + m in sys.modules],
    "executed": [m for m in modules if type(sys.modules.get("antitri." + m)) is types.ModuleType],
    "numpy": "numpy" in sys.modules,
}}
imported = state()
missed = sorted(set(antitri.__all__) - set(dir(antitri)))
print(json.dumps({{"import": imported, "dir": state(), "missed": missed}}))
""".format(MODULES=MODULES)


def fresh_import():
    proc = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_import_registers_every_module_and_executes_none():
    state = fresh_import()["import"]
    assert state == {"registered": list(MODULES), "executed": [], "numpy": False}


def test_dir_lists_every_public_name_without_loading_a_module():
    # dir() listed only the 24 eagerly bound names: thm41_group and run_sweep were missing
    out = fresh_import()
    assert out["missed"] == []
    assert out["dir"] == out["import"]


def test_public_table_holds_each_name_once_and_resolves_it_to_its_home():
    import antitri

    names = [name for names in antitri._PUBLIC.values() for name in names]
    assert set(antitri._PUBLIC) == set(MODULES)
    assert len(names) == len(set(names))
    assert antitri.__all__ == sorted(names)
    for name, home in antitri._HOME.items():
        assert getattr(antitri, name) is getattr(sys.modules[f"antitri.{home}"], name), name
