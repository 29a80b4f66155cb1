"""The bundled graph6 corpora of all 6- and 7-vertex graphs, read by oracle.all_graphs.

This is a regular package, not a namespace package, so that
importlib.resources can read the files from a zipped install too.
"""
