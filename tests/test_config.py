import re
from dataclasses import fields

import pytest

from ecglab.config import ConfigError, RunConfig, load_config
from ecglab.training import ClassifierConfig, DenoiserConfig, GanConfig

# a valid value different from the default, per RunConfig field type
_CHANGE = {
    "int": lambda v: v + 3,
    "float": lambda v: 2 * v + 0.25,
    "int | None": lambda v: 7,
    "str": lambda v: "normal",
}


@pytest.mark.parametrize("section,cls", [("gan", GanConfig), ("classifier", ClassifierConfig),
                                         ("denoiser", DenoiserConfig)])
def test_section_takes_every_field_from_its_key(tmp_path, section, cls):
    values = {f.name: _CHANGE[f.type](f.default) for f in fields(RunConfig)}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    got = getattr(load_config(path), section)()
    assert type(got) is cls
    for f in fields(cls):
        want = values["model_dim" if f.name == "d" else f.name]
        assert want != f.default, f.name
        assert getattr(got, f.name) == want, f.name


@pytest.mark.parametrize("text,lineno,message", [
    ("epochs = 2\nwarp = 9\n", 2, "unknown configuration key 'warp'"),
    ("# comment\n\nepochs 2\n", 3, "expected key=value, got 'epochs 2'"),
    ("epochs = 2\nbatch_size = many\n", 2, "bad value for 'batch_size': 'many'"),
])
def test_config_error_names_the_line(tmp_path, text, lineno, message):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^line {lineno}: {re.escape(message)}$"):
        load_config(path)
