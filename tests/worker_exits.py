"""A worker init module that ends the worker before it serves anything."""

import os

os._exit(0)
