"""Setuptools entry point.

Package metadata lives in ``setup.cfg``; this file exists so that
``pip install -e .`` works in offline environments where the ``wheel``
package (needed by PEP 660 editable installs) is unavailable.
"""

from setuptools import setup

setup()
