"""Edge devices: field world, camera, drones, robotic cars, swarms."""

from .car import RoboticCar
from .device import EdgeDevice
from .drone import Drone
from .field import FieldWorld, Person
from .sensors import Camera, FrameBatch
from .swarm import Swarm
from .engine import SwarmEngine

__all__ = [
    "SwarmEngine",
    "EdgeDevice",
    "Drone",
    "RoboticCar",
    "FieldWorld",
    "Person",
    "Camera",
    "FrameBatch",
    "Swarm",
]
